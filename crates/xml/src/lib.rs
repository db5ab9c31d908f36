//! The Fig.-4 `newContent` XML wire format.
//!
//! RCB-Agent answers Ajax polling requests with an `application/xml`
//! document shaped exactly like the paper's Figure 4:
//!
//! ```xml
//! <?xml version='1.0' encoding='utf-8'?>
//! <newContent>
//!   <docTime>documentTimestamp</docTime>
//!   <docContent>
//!     <docHead>
//!       <hChild1><![CDATA[escape(hData1)]]></hChild1>
//!       ...
//!     </docHead>
//!     <docBody><![CDATA[escape(bData)]]></docBody>
//!     <!-- or, for frame pages: -->
//!     <docFrameSet><![CDATA[escape(fData)]]></docFrameSet>
//!     <docNoFrames><![CDATA[escape(nData)]]></docNoFrames>
//!   </docContent>
//!   <userActions>userActionData</userActions>
//! </newContent>
//! ```
//!
//! Each payload is the JavaScript-`escape`d encoding of an *attribute
//! name-value list plus innerHTML value*, wrapped in CDATA so that the
//! response "can be precisely contained in an application/xml message"
//! (§4.1.2). This crate provides the typed model ([`NewContent`]), the
//! writer, and the reader (a small real XML scanner, since Ajax-Snippet
//! receives this over the wire and must parse it).

pub mod model;
pub mod reader;
pub mod scanner;
pub mod writer;

pub use model::{
    BodySplice, DeltaContent, DeltaTop, ElementPayload, NewContent, PollPayload, TopLevel,
};
pub use reader::{parse_delta_content, parse_new_content, parse_poll_payload};
pub use writer::{
    splice_delta_content, write_delta_content, write_new_content, write_new_content_parts,
    BodyChild, BodyChildren, HeadParts, Sections, TopCopy, TopParts,
};
