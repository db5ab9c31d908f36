//! The [`Origin`] trait and the static-site server.

use std::collections::HashMap;

use rcb_http::{Request, Response, Status};
use rcb_util::SimTime;

use crate::sites::{generate_homepage, generate_object, SiteSpec};

/// A simulated origin web server.
///
/// Implementations receive parsed requests and return full responses; the
/// network simulator charges wire time separately from the profile's
/// `origin_think`.
pub trait Origin {
    /// The host name this origin answers for.
    fn host(&self) -> &str;

    /// Handles one request at simulated time `now`.
    fn handle(&mut self, req: &Request, now: SimTime) -> Response;
}

/// Serves one synthetic Alexa site: the homepage at `/` plus its object
/// manifest, and simple section/story pages so navigation works.
///
/// The homepage and objects are generated when the server answers its
/// first request. Generation is a pure function of the spec, so the bytes
/// are the same whenever it runs, and a registry of all 20 sites costs
/// nothing for the sites a run never loads.
pub struct StaticSiteServer {
    spec: SiteSpec,
    content: Option<SiteContent>,
}

/// A site's generated homepage and objects (by request path).
struct SiteContent {
    homepage: String,
    objects: HashMap<String, (String, Vec<u8>)>,
}

impl SiteContent {
    fn generate(spec: &SiteSpec) -> SiteContent {
        let objects = spec
            .objects
            .iter()
            .map(|obj| {
                let ct = obj.kind.content_type().to_string();
                (
                    format!("/{}", obj.path),
                    (ct, generate_object(obj, spec.index)),
                )
            })
            .collect();
        SiteContent {
            homepage: generate_homepage(spec),
            objects,
        }
    }
}

impl StaticSiteServer {
    /// Builds the server for `spec`; its content is generated on the
    /// first request.
    pub fn new(spec: SiteSpec) -> StaticSiteServer {
        StaticSiteServer {
            spec,
            content: None,
        }
    }

    /// The underlying site spec.
    pub fn spec(&self) -> &SiteSpec {
        &self.spec
    }
}

impl Origin for StaticSiteServer {
    fn host(&self) -> &str {
        self.spec.name
    }

    fn handle(&mut self, req: &Request, _now: SimTime) -> Response {
        let spec = &self.spec;
        let content = self
            .content
            .get_or_insert_with(|| SiteContent::generate(spec));
        let path = req.path();
        if path == "/" || path == "/index.html" {
            return Response::html(content.homepage.clone());
        }
        if let Some((ct, body)) = content.objects.get(path) {
            return Response::with_body(Status::OK, ct, body.clone());
        }
        // Section/story/search pages: small generated pages so host
        // navigation beyond the homepage works in scenarios.
        if path.starts_with("/section/") || path.starts_with("/story/") || path == "/search" {
            let title = format!("{} — {}", self.spec.name, path.trim_start_matches('/'));
            let q = req.query_param("q").unwrap_or_default();
            let body = format!(
                "<!DOCTYPE html><html><head><title>{title}</title></head><body>\
                 <h1>{title}</h1><p>query: {q}</p>\
                 <p><a href=\"/\">back to {}</a></p></body></html>",
                self.spec.name
            );
            return Response::html(body);
        }
        Response::error(Status::NOT_FOUND, &format!("no such path {path}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{alexa20, site_by_index};

    /// Every path of every site answers with what the generators return,
    /// whichever path a server answers first.
    #[test]
    fn every_path_serves_what_the_generators_return() {
        for spec in alexa20() {
            let mut paths: Vec<String> = spec
                .objects
                .iter()
                .map(|o| format!("/{}", o.path))
                .collect();
            paths.extend(["/".to_string(), "/index.html".to_string()]);
            for first in [0, paths.len() - 1] {
                let mut s = StaticSiteServer::new(spec.clone());
                paths.rotate_left(first);
                for path in &paths {
                    let resp = s.handle(&Request::get(path.as_str()), SimTime::ZERO);
                    let (ct, body) = match spec
                        .objects
                        .iter()
                        .find(|o| format!("/{}", o.path) == *path)
                    {
                        Some(obj) => (obj.kind.content_type(), generate_object(obj, spec.index)),
                        None => ("text/html", generate_homepage(&spec).into_bytes()),
                    };
                    assert!(resp.status.is_success(), "{} {path}", spec.name);
                    assert_eq!(
                        resp.content_type().as_deref(),
                        Some(ct),
                        "{} {path}",
                        spec.name
                    );
                    assert!(resp.body.as_slice() == &body[..], "{} {path}", spec.name);
                }
            }
        }
    }

    #[test]
    fn homepage_served_at_root() {
        let mut s = StaticSiteServer::new(site_by_index(2).unwrap());
        let resp = s.handle(&Request::get("/"), SimTime::ZERO);
        assert!(resp.status.is_success());
        assert_eq!(resp.content_type().as_deref(), Some("text/html"));
        assert_eq!(resp.body.len() as u64, s.spec().html_size.as_bytes());
    }

    #[test]
    fn objects_served_with_types() {
        let mut s = StaticSiteServer::new(site_by_index(1).unwrap());
        let spec = s.spec().clone();
        for obj in spec.objects.iter().take(5) {
            let resp = s.handle(&Request::get(format!("/{}", obj.path)), SimTime::ZERO);
            assert!(resp.status.is_success(), "{}", obj.path);
            assert_eq!(
                resp.content_type().as_deref(),
                Some(obj.kind.content_type())
            );
            assert_eq!(resp.body.len() as u64, obj.size.as_bytes());
        }
    }

    #[test]
    fn missing_path_is_404() {
        let mut s = StaticSiteServer::new(site_by_index(2).unwrap());
        let resp = s.handle(&Request::get("/definitely/not/here"), SimTime::ZERO);
        assert_eq!(resp.status, Status::NOT_FOUND);
    }

    #[test]
    fn section_pages_navigate() {
        let mut s = StaticSiteServer::new(site_by_index(4).unwrap());
        let resp = s.handle(&Request::get("/section/3"), SimTime::ZERO);
        assert!(resp.status.is_success());
        assert!(resp.body_str().contains("section/3"));
        let search = s.handle(&Request::get("/search?q=laptop"), SimTime::ZERO);
        assert!(search.body_str().contains("laptop"));
    }
}
