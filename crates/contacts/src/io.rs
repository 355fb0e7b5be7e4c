//! Plain-text trace format with round-trip read/write.
//!
//! The format is line-oriented, human-inspectable, and close to the contact
//! reports produced by common DTN tooling:
//!
//! ```text
//! # omn-contacts v1
//! nodes 25
//! span 86400.0
//! 0 3 12.5 48.0
//! 1 7 100.0 130.5
//! ```
//!
//! Each contact line is `a b start end` in seconds. Lines beginning with `#`
//! are comments.

use std::fmt;
use std::io::{BufRead, Write};

use omn_sim::SimTime;

use crate::contact::{Contact, ContactError, NodeId};
use crate::source::{ContactSource, LastContact};
use crate::trace::{ContactTrace, TraceBuilder};

/// What exactly was wrong with a malformed record.
///
/// Every reader in this module — and the real-dataset readers in the
/// `omn-traces` crate — reports malformed input through this typed kind
/// instead of a free-form string or a panic, so callers can branch on the
/// failure class (skip-and-count in lenient ingestion, abort in strict).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// Wrong number of fields on the line.
    FieldCount {
        /// Human-readable shape of the expected record.
        expected: &'static str,
        /// How many fields the line actually had.
        got: usize,
    },
    /// A required field or header is absent.
    Missing(&'static str),
    /// A field failed numeric conversion.
    Number {
        /// Which field.
        field: &'static str,
        /// The offending token.
        token: String,
    },
    /// A time value was rejected (negative, non-finite…).
    Time {
        /// Which field.
        field: &'static str,
        /// Why the time was rejected.
        reason: String,
    },
    /// The record does not form a valid contact interval.
    Contact(ContactError),
    /// A node id is outside the declared population.
    NodeOutOfRange {
        /// The raw node id on the line.
        id: u64,
        /// The declared population size.
        limit: usize,
    },
    /// More distinct raw node ids than the declared population (id
    /// remapping ran out of dense ids).
    NodeLimit {
        /// The declared population size.
        limit: usize,
    },
    /// The record extends past the declared span.
    PastSpan,
    /// The record is out of time order.
    OutOfOrder,
    /// A contact line appeared before the `nodes`/`span` header.
    HeaderFirst,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::FieldCount { expected, got } => {
                write!(f, "expected {expected}, got {got} fields")
            }
            ParseErrorKind::Missing(field) => write!(f, "missing {field}"),
            ParseErrorKind::Number { field, token } => {
                write!(f, "bad {field}: `{token}` is not a number")
            }
            ParseErrorKind::Time { field, reason } => write!(f, "bad {field}: {reason}"),
            ParseErrorKind::Contact(e) => write!(f, "bad contact: {e}"),
            ParseErrorKind::NodeOutOfRange { id, limit } => {
                write!(f, "node id {id} out of range (population {limit})")
            }
            ParseErrorKind::NodeLimit { limit } => {
                write!(f, "more than {limit} distinct node ids")
            }
            ParseErrorKind::PastSpan => write!(f, "contact extends past span"),
            ParseErrorKind::OutOfOrder => write!(f, "events out of time order"),
            ParseErrorKind::HeaderFirst => write!(
                f,
                "contact line before `nodes`/`span` header (streaming reads \
                 need the header first)"
            ),
        }
    }
}

/// A malformed record: the 1-based line it occurred on plus the typed
/// failure kind.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong with it.
    pub kind: ParseErrorKind,
}

impl ParseError {
    /// Creates a parse error for `line`.
    #[must_use]
    pub fn new(line: usize, kind: ParseErrorKind) -> ParseError {
        ParseError { line, kind }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for ParseError {}

/// Error produced while reading a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed record, with its 1-based line number and typed kind.
    Parse(ParseError),
    /// The trace content failed validation (bad node ids, span…).
    Invalid(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::Parse(e) => write!(f, "{e}"),
            TraceIoError::Invalid(msg) => write!(f, "invalid trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse(e) => Some(e),
            TraceIoError::Invalid(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> TraceIoError {
        TraceIoError::Io(e)
    }
}

impl From<ParseError> for TraceIoError {
    fn from(e: ParseError) -> TraceIoError {
        TraceIoError::Parse(e)
    }
}

/// Writes a trace in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(trace: &ContactTrace, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# omn-contacts v1")?;
    writeln!(w, "nodes {}", trace.node_count())?;
    writeln!(w, "span {}", trace.span().as_secs())?;
    for c in trace.contacts() {
        writeln!(
            w,
            "{} {} {} {}",
            c.a().0,
            c.b().0,
            c.start().as_secs(),
            c.end().as_secs()
        )?;
    }
    Ok(())
}

/// Reads a trace in the v1 text format.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] with a line number for malformed input,
/// [`TraceIoError::Invalid`] if the parsed trace violates trace invariants,
/// or [`TraceIoError::Io`] for reader failures.
pub fn read_trace<R: BufRead>(r: R) -> Result<ContactTrace, TraceIoError> {
    let mut nodes: Option<usize> = None;
    let mut span: Option<SimTime> = None;
    let mut contacts = Vec::new();

    for (idx, line) in r.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let Some(fields) = v1_fields(&line) else {
            continue;
        };
        match parse_header(line_no, &fields)? {
            Some(Header::Nodes(n)) => nodes = Some(n),
            Some(Header::Span(s)) => span = Some(s),
            None => contacts.push(parse_contact(line_no, &fields, None)?),
        }
    }

    let nodes = nodes.ok_or_else(|| TraceIoError::Invalid("missing `nodes` header".into()))?;
    let mut builder = TraceBuilder::new(nodes).contacts(contacts);
    if let Some(s) = span {
        builder = builder.span(s);
    }
    builder
        .build()
        .map_err(|e| TraceIoError::Invalid(e.to_string()))
}

/// The whitespace-separated fields of a v1 line, or `None` for a blank or
/// comment line.
fn v1_fields(line: &str) -> Option<Vec<&str>> {
    let line = line.trim();
    (!line.is_empty() && !line.starts_with('#')).then(|| line.split_whitespace().collect())
}

/// A `nodes` or `span` header of the v1 format.
enum Header {
    Nodes(usize),
    Span(SimTime),
}

/// Parses a v1 line's fields as a header, or returns `None` when the first
/// field is not a header keyword.
fn parse_header(line_no: usize, fields: &[&str]) -> Result<Option<Header>, TraceIoError> {
    let value = |field| {
        fields
            .get(1)
            .copied()
            .ok_or_else(|| parse_err(line_no, ParseErrorKind::Missing(field)))
    };
    let header = match fields[0] {
        "nodes" => {
            let v = value("node count")?;
            let n = v
                .parse::<usize>()
                .map_err(|_| parse_err(line_no, number_kind("node count", v)))?;
            Header::Nodes(n)
        }
        "span" => {
            let v = value("span")?;
            let secs = v
                .parse::<f64>()
                .map_err(|_| parse_err(line_no, number_kind("span", v)))?;
            Header::Span(
                SimTime::try_from_secs(secs)
                    .map_err(|e| parse_err(line_no, time_kind("span", &e)))?,
            )
        }
        _ => return Ok(None),
    };
    Ok(Some(header))
}

/// Parses the fields of an `a b start end` contact line. With `bounds`
/// (the declared population and span), node ids outside the population
/// and contacts ending past the span are rejected as well.
fn parse_contact(
    line_no: usize,
    fields: &[&str],
    bounds: Option<(usize, SimTime)>,
) -> Result<Contact, TraceIoError> {
    if fields.len() != 4 {
        return Err(parse_err(
            line_no,
            ParseErrorKind::FieldCount {
                expected: "`a b start end`",
                got: fields.len(),
            },
        ));
    }
    let a: u32 = fields[0]
        .parse()
        .map_err(|_| parse_err(line_no, number_kind("node id", fields[0])))?;
    let b: u32 = fields[1]
        .parse()
        .map_err(|_| parse_err(line_no, number_kind("node id", fields[1])))?;
    if let Some((nodes, _)) = bounds {
        for id in [a, b] {
            if id as usize >= nodes {
                return Err(parse_err(
                    line_no,
                    ParseErrorKind::NodeOutOfRange {
                        id: u64::from(id),
                        limit: nodes,
                    },
                ));
            }
        }
    }
    let start: f64 = fields[2]
        .parse()
        .map_err(|_| parse_err(line_no, number_kind("start", fields[2])))?;
    let end: f64 = fields[3]
        .parse()
        .map_err(|_| parse_err(line_no, number_kind("end", fields[3])))?;
    let start =
        SimTime::try_from_secs(start).map_err(|e| parse_err(line_no, time_kind("start", &e)))?;
    let end = SimTime::try_from_secs(end).map_err(|e| parse_err(line_no, time_kind("end", &e)))?;
    if bounds.is_some_and(|(_, span)| end > span) {
        return Err(parse_err(line_no, ParseErrorKind::PastSpan));
    }
    Contact::new(NodeId(a), NodeId(b), start, end)
        .map_err(|e| parse_err(line_no, ParseErrorKind::Contact(e)))
}

fn parse_err(line: usize, kind: ParseErrorKind) -> TraceIoError {
    TraceIoError::Parse(ParseError::new(line, kind))
}

fn number_kind(field: &'static str, token: &str) -> ParseErrorKind {
    ParseErrorKind::Number {
        field,
        token: token.to_owned(),
    }
}

fn time_kind(field: &'static str, reason: &dyn fmt::Display) -> ParseErrorKind {
    ParseErrorKind::Time {
        field,
        reason: reason.to_string(),
    }
}

/// A [`ContactSource`] that streams a v1 text trace line by line instead of
/// loading it into a `Vec` first.
///
/// The reader consumes the `nodes`/`span` headers eagerly (they must appear
/// before the first contact line) and then parses one contact per
/// [`next_contact`](ContactSource::next_contact) call, so resident memory is
/// one line regardless of file size. Contact lines must already be sorted
/// by `(start, end, pair)` — the order [`write_trace`] emits — which the
/// driver debug-asserts downstream.
///
/// I/O or parse failures end the stream; inspect them afterwards with
/// [`StreamingTraceSource::error`]. (A pull-based stream has no other
/// channel to report a mid-stream failure.)
#[derive(Debug)]
pub struct StreamingTraceSource<R> {
    lines: std::io::Lines<R>,
    /// 0-based count of lines already consumed (so the next line is
    /// `line_no + 1`, 1-based).
    line_no: usize,
    nodes: usize,
    span: SimTime,
    done: bool,
    error: Option<TraceIoError>,
}

impl<R: BufRead> StreamingTraceSource<R> {
    /// Opens a v1 text trace for streaming, consuming the header.
    ///
    /// # Errors
    ///
    /// Returns an error if the `nodes` or `span` header is missing,
    /// malformed, or interleaved after contact lines.
    pub fn open(r: R) -> Result<StreamingTraceSource<R>, TraceIoError> {
        let mut lines = r.lines();
        let mut line_no = 0usize;
        let mut nodes: Option<usize> = None;
        let mut span: Option<SimTime> = None;
        while nodes.is_none() || span.is_none() {
            let Some(line) = lines.next() else {
                return Err(TraceIoError::Invalid(
                    "missing `nodes`/`span` header".into(),
                ));
            };
            line_no += 1;
            let line = line?;
            let Some(fields) = v1_fields(&line) else {
                continue;
            };
            match parse_header(line_no, &fields)? {
                Some(Header::Nodes(n)) => nodes = Some(n),
                Some(Header::Span(s)) => span = Some(s),
                None => return Err(parse_err(line_no, ParseErrorKind::HeaderFirst)),
            }
        }
        Ok(StreamingTraceSource {
            lines,
            line_no,
            nodes: nodes.expect("loop exits with nodes set"),
            span: span.expect("loop exits with span set"),
            done: false,
            error: None,
        })
    }

    /// The error that terminated the stream early, if any.
    #[must_use]
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }
}

impl<R: BufRead> ContactSource for StreamingTraceSource<R> {
    fn node_count(&self) -> usize {
        self.nodes
    }

    fn span(&self) -> SimTime {
        self.span
    }

    fn next_contact(&mut self) -> Option<Contact> {
        while !self.done {
            let Some(line) = self.lines.next() else {
                self.done = true;
                break;
            };
            self.line_no += 1;
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    self.error = Some(TraceIoError::Io(e));
                    self.done = true;
                    break;
                }
            };
            let Some(fields) = v1_fields(&line) else {
                continue;
            };
            match parse_contact(self.line_no, &fields, Some((self.nodes, self.span))) {
                Ok(c) => return Some(c),
                Err(e) => {
                    self.error = Some(e);
                    self.done = true;
                }
            }
        }
        None
    }

    fn last_contact(&self) -> LastContact {
        LastContact::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ContactTrace {
        TraceBuilder::new(4)
            .span(SimTime::from_secs(100.0))
            .contact(
                Contact::new(
                    NodeId(0),
                    NodeId(1),
                    SimTime::from_secs(1.5),
                    SimTime::from_secs(3.25),
                )
                .unwrap(),
            )
            .contact(
                Contact::new(
                    NodeId(2),
                    NodeId(3),
                    SimTime::from_secs(10.0),
                    SimTime::from_secs(20.0),
                )
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let parsed = read_trace(buf.as_slice()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn reads_comments_and_blank_lines() {
        let text = "# a comment\n\nnodes 2\nspan 50\n# another\n0 1 1 2\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.node_count(), 2);
        assert_eq!(trace.span(), SimTime::from_secs(50.0));
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn missing_nodes_header_is_invalid() {
        let err = read_trace("0 1 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Invalid(_)), "{err}");
    }

    #[test]
    fn reports_line_numbers() {
        let text = "nodes 2\n0 1 oops 2\n";
        match read_trace(text.as_bytes()).unwrap_err() {
            TraceIoError::Parse(e) => {
                assert_eq!(e.line, 2);
                assert!(matches!(
                    e.kind,
                    ParseErrorKind::Number { field: "start", .. }
                ));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_wrong_field_count() {
        let text = "nodes 2\n0 1 5\n";
        match read_trace(text.as_bytes()).unwrap_err() {
            TraceIoError::Parse(e) => {
                assert!(matches!(e.kind, ParseErrorKind::FieldCount { got: 3, .. }));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_self_contact_line() {
        let text = "nodes 2\n1 1 0 5\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse(e) => {
                assert_eq!(e.kind, ParseErrorKind::Contact(ContactError::SelfContact));
                assert!(e.to_string().contains("same node"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rejects_out_of_range_node() {
        let text = "nodes 2\n0 9 0 5\n";
        assert!(matches!(
            read_trace(text.as_bytes()).unwrap_err(),
            TraceIoError::Invalid(_)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = parse_err(7, ParseErrorKind::PastSpan);
        let rendered = e.to_string();
        assert!(rendered.contains("line 7"), "{rendered}");
        assert!(rendered.contains("past span"), "{rendered}");
    }

    #[test]
    fn streaming_source_yields_the_same_contacts_as_read_trace() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let mut src = StreamingTraceSource::open(buf.as_slice()).unwrap();
        assert_eq!(src.node_count(), trace.node_count());
        assert_eq!(src.span(), trace.span());
        let streamed: Vec<Contact> = std::iter::from_fn(|| src.next_contact()).collect();
        assert_eq!(streamed, trace.contacts());
        assert!(src.error().is_none());
        assert_eq!(src.next_contact(), None, "stays exhausted");
    }

    #[test]
    fn streaming_source_skips_comments_and_blanks() {
        let text = "# header\nnodes 2\nspan 50\n# mid\n\n0 1 1 2\n\n0 1 5 6\n";
        let mut src = StreamingTraceSource::open(text.as_bytes()).unwrap();
        let streamed: Vec<Contact> = std::iter::from_fn(|| src.next_contact()).collect();
        assert_eq!(streamed.len(), 2);
        assert!(src.error().is_none());
    }

    #[test]
    fn streaming_source_requires_header_first() {
        let err = StreamingTraceSource::open("0 1 1 2\nnodes 2\nspan 50\n".as_bytes()).unwrap_err();
        assert!(
            matches!(
                &err,
                TraceIoError::Parse(ParseError {
                    line: 1,
                    kind: ParseErrorKind::HeaderFirst,
                })
            ),
            "{err}"
        );
        let err = StreamingTraceSource::open("nodes 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Invalid(_)), "{err}");
    }

    #[test]
    fn streaming_source_records_parse_errors_and_stops() {
        let text = "nodes 2\nspan 50\n0 1 1 2\n0 1 oops 9\n0 1 10 11\n";
        let mut src = StreamingTraceSource::open(text.as_bytes()).unwrap();
        assert!(src.next_contact().is_some());
        // The malformed line ends the stream; the valid line after it is
        // never reached.
        assert_eq!(src.next_contact(), None);
        assert_eq!(src.next_contact(), None);
        match src.error() {
            Some(TraceIoError::Parse(e)) => assert_eq!(e.line, 4),
            other => panic!("expected recorded parse error, got {other:?}"),
        }
    }

    #[test]
    fn streaming_source_rejects_out_of_range_and_past_span() {
        let text = "nodes 2\nspan 50\n0 9 1 2\n";
        let mut src = StreamingTraceSource::open(text.as_bytes()).unwrap();
        assert_eq!(src.next_contact(), None);
        match src.error() {
            Some(TraceIoError::Parse(e)) => {
                assert_eq!(e.kind, ParseErrorKind::NodeOutOfRange { id: 9, limit: 2 })
            }
            other => panic!("expected out-of-range error, got {other:?}"),
        }

        let text = "nodes 2\nspan 50\n0 1 40 60\n";
        let mut src = StreamingTraceSource::open(text.as_bytes()).unwrap();
        assert_eq!(src.next_contact(), None);
        match src.error() {
            Some(TraceIoError::Parse(e)) => assert_eq!(e.kind, ParseErrorKind::PastSpan),
            other => panic!("expected past-span error, got {other:?}"),
        }
    }

    #[test]
    fn streaming_source_drives_a_contact_driver() {
        use crate::ContactDriver;
        use omn_sim::RngFactory;

        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let src = StreamingTraceSource::open(buf.as_slice()).unwrap();
        let mut driver = ContactDriver::from_source(src, None, &RngFactory::new(1));
        let mut fed = Vec::new();
        while let Some(start) = driver.peek_start() {
            let (i, c) = driver.next_contact().unwrap();
            assert_eq!((i, c.start()), (fed.len(), start));
            fed.push(c);
        }
        assert_eq!(fed, trace.contacts());
        assert_eq!(driver.contacts_pulled(), trace.len());
    }
}
