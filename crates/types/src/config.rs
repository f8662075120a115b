//! The declarative text-config format: machines, tenant mixes, phased
//! workloads and scenario timelines as data files instead of Rust.
//!
//! The offline vendor set has no serde or toml, so — like [`crate::json`]
//! — this is a small hand-rolled parser. The format is deliberately
//! minimal and line-oriented so every diagnostic can carry an exact
//! line number:
//!
//! ```text
//! # A comment runs to end of line.
//! schema = 1                      # top-level entries before any section
//! kind = scenario
//! name = noisy-neighbor-duel
//!
//! [tenant]                        # sections repeat; order is meaningful
//! workload = gups
//! rss_pages = 2048
//! weight = 3
//! seed = 2024
//!
//! [event]
//! at = 8ms                        # durations carry ns/us/ms/s suffixes
//! tenant = 0
//! action = depart
//! ```
//!
//! Values are typed at parse time: integers (with `_` separators),
//! finite floats, booleans, bare words, quoted strings, durations
//! (`ns`/`us`/`ms`/`s`), sizes (`B`/`KiB`/`MiB`/`GiB`), bandwidths
//! (`B/s`/`KiB/s`/`MiB/s`/`GiB/s`) and comma-separated lists of any of
//! these. Schema validation (which keys a section accepts, ranges,
//! cross-field constraints) happens in the domain crates through
//! [`FieldReader`], which tracks consumed keys so unknown keys are
//! reported with a near-miss suggestion.
//!
//! [`ConfigDoc::render`] reprints a document canonically (comments
//! dropped, spacing normalised); `parse(render(parse(text)))` is the
//! identity on the document tree, which the property suite pins.

use core::fmt;
use std::fmt::Write as _;

use crate::suggest;

/// A parse or validation failure with the line it occurred on.
///
/// `line` is 1-based; 0 means the failure concerns the document as a
/// whole (e.g. a missing required section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the failure; 0 = whole document.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl ConfigError {
    /// Creates an error pinned to `line`.
    pub fn at(line: usize, msg: impl Into<String>) -> Self {
        Self { line, msg: msg.into() }
    }

    /// Creates a whole-document error (no meaningful line).
    pub fn whole(msg: impl Into<String>) -> Self {
        Self { line: 0, msg: msg.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ConfigError {}

/// A typed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigValue {
    /// A non-negative integer (`42`, `1_000_000`).
    Int(u64),
    /// A finite float (`0.75`, `1e3`). Non-finite values are rejected
    /// at parse time so rendering always round-trips.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A bare word or quoted string.
    Str(String),
    /// A duration in nanoseconds (`118ns`, `100us`, `8ms`, `2s`).
    Duration(u64),
    /// A size in bytes (`64B`, `8KiB`, `512KiB`, `8MiB`, `1GiB`).
    Size(u64),
    /// A bandwidth in bytes per second (`30GiB/s`, `256MiB/s`).
    Rate(f64),
    /// A comma-separated list of scalar values.
    List(Vec<ConfigValue>),
}

impl ConfigValue {
    /// The type name used in diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            ConfigValue::Int(_) => "integer",
            ConfigValue::Float(_) => "float",
            ConfigValue::Bool(_) => "boolean",
            ConfigValue::Str(_) => "string",
            ConfigValue::Duration(_) => "duration",
            ConfigValue::Size(_) => "size",
            ConfigValue::Rate(_) => "bandwidth",
            ConfigValue::List(_) => "list",
        }
    }

    /// Canonical rendering (what [`ConfigDoc::render`] emits).
    fn render(&self, out: &mut String) {
        match self {
            ConfigValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            ConfigValue::Float(v) => {
                // `{:?}` is the shortest round-tripping form and keeps
                // a `.0` on integral floats (so it re-parses as Float).
                let _ = write!(out, "{v:?}");
            }
            ConfigValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            ConfigValue::Str(s) => {
                if is_bare_word(s) {
                    out.push_str(s);
                } else {
                    render_quoted(s, out);
                }
            }
            ConfigValue::Duration(ns) => {
                // Largest unit that divides exactly, so values re-parse
                // to the same nanosecond count.
                let (value, unit) = if *ns != 0 && ns.is_multiple_of(1_000_000_000) {
                    (ns / 1_000_000_000, "s")
                } else if *ns != 0 && ns.is_multiple_of(1_000_000) {
                    (ns / 1_000_000, "ms")
                } else if *ns != 0 && ns.is_multiple_of(1_000) {
                    (ns / 1_000, "us")
                } else {
                    (*ns, "ns")
                };
                let _ = write!(out, "{value}{unit}");
            }
            ConfigValue::Size(bytes) => {
                let (value, unit) = if *bytes != 0 && bytes.is_multiple_of(1 << 30) {
                    (bytes >> 30, "GiB")
                } else if *bytes != 0 && bytes.is_multiple_of(1 << 20) {
                    (bytes >> 20, "MiB")
                } else if *bytes != 0 && bytes.is_multiple_of(1 << 10) {
                    (bytes >> 10, "KiB")
                } else {
                    (*bytes, "B")
                };
                let _ = write!(out, "{value}{unit}");
            }
            ConfigValue::Rate(bytes_per_sec) => {
                // Emit in B/s with the round-tripping float form; the
                // parser multiplies suffixes back out exactly.
                let _ = write!(out, "{bytes_per_sec:?}B/s");
            }
            ConfigValue::List(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render(out);
                }
            }
        }
    }
}

/// One `key = value` line of a section.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigEntry {
    /// The key (an identifier).
    pub key: String,
    /// The typed value.
    pub value: ConfigValue,
    /// 1-based source line.
    pub line: usize,
}

/// One `[name]` section and its entries. Sections with the same name
/// may repeat (`[tenant]`, `[event]`, ...); order is meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSection {
    /// The section name (empty for the implicit top-level section).
    pub name: String,
    /// 1-based line of the `[name]` header (0 for the top level).
    pub line: usize,
    /// Entries in source order.
    pub entries: Vec<ConfigEntry>,
}

impl ConfigSection {
    /// Looks up the first entry with `key`.
    pub fn get(&self, key: &str) -> Option<&ConfigEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// The section's display label for diagnostics: `[tenant]`, or
    /// `top level` for the root.
    pub fn label(&self) -> String {
        if self.name.is_empty() {
            "top level".to_string()
        } else {
            format!("[{}]", self.name)
        }
    }
}

/// A parsed configuration document: the implicit top-level section
/// plus every `[section]` in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigDoc {
    /// Entries before the first `[section]` header.
    pub root: ConfigSection,
    /// The `[section]` blocks, in source order.
    pub sections: Vec<ConfigSection>,
}

impl ConfigDoc {
    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] with a 1-based line number on the
    /// first malformed line: bad section headers, missing `=`, invalid
    /// values, duplicate keys within a section.
    pub fn parse(input: &str) -> Result<ConfigDoc, ConfigError> {
        let mut doc = ConfigDoc {
            root: ConfigSection { name: String::new(), line: 0, entries: Vec::new() },
            sections: Vec::new(),
        };
        for (i, raw_line) in input.lines().enumerate() {
            let line_no = i + 1;
            let line = strip_comment(raw_line);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(ConfigError::at(line_no, "section header is missing ']'"));
                };
                let name = name.trim();
                if !is_identifier(name) {
                    return Err(ConfigError::at(
                        line_no,
                        format!("invalid section name {name:?} (want letters, digits, '_', '-')"),
                    ));
                }
                doc.sections.push(ConfigSection {
                    name: name.to_string(),
                    line: line_no,
                    entries: Vec::new(),
                });
                continue;
            }
            let Some((key, value_text)) = line.split_once('=') else {
                return Err(ConfigError::at(
                    line_no,
                    format!("expected `key = value` or `[section]`, found {line:?}"),
                ));
            };
            let key = key.trim();
            if !is_identifier(key) {
                return Err(ConfigError::at(
                    line_no,
                    format!("invalid key {key:?} (want letters, digits, '_', '-')"),
                ));
            }
            let value = parse_value(value_text.trim(), line_no)?;
            let section = doc.sections.last_mut().unwrap_or(&mut doc.root);
            if let Some(prev) = section.entries.iter().find(|e| e.key == key) {
                return Err(ConfigError::at(
                    line_no,
                    format!(
                        "duplicate key {key:?} in {} (first set on line {})",
                        section.label(),
                        prev.line
                    ),
                ));
            }
            section.entries.push(ConfigEntry { key: key.to_string(), value, line: line_no });
        }
        Ok(doc)
    }

    /// Every section named `name`, in source order.
    pub fn sections_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a ConfigSection> {
        self.sections.iter().filter(move |s| s.name == name)
    }

    /// Canonical rendering: comments dropped, spacing normalised, one
    /// blank line before each section header. Re-parsing the output
    /// yields an equal document (up to entry line numbers — compare
    /// with [`ConfigDoc::structural_eq`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for entry in &self.root.entries {
            let _ = write!(out, "{} = ", entry.key);
            entry.value.render(&mut out);
            out.push('\n');
        }
        for section in &self.sections {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "[{}]", section.name);
            for entry in &section.entries {
                let _ = write!(out, "{} = ", entry.key);
                entry.value.render(&mut out);
                out.push('\n');
            }
        }
        out
    }

    /// Structural equality: same sections, keys and values, ignoring
    /// source line numbers — the equivalence [`ConfigDoc::render`]
    /// round-trips under.
    pub fn structural_eq(&self, other: &ConfigDoc) -> bool {
        fn section_eq(a: &ConfigSection, b: &ConfigSection) -> bool {
            a.name == b.name
                && a.entries.len() == b.entries.len()
                && a.entries
                    .iter()
                    .zip(&b.entries)
                    .all(|(x, y)| x.key == y.key && x.value == y.value)
        }
        section_eq(&self.root, &other.root)
            && self.sections.len() == other.sections.len()
            && self.sections.iter().zip(&other.sections).all(|(a, b)| section_eq(a, b))
    }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// `true` for `[A-Za-z0-9_-]+` starting with a letter or digit.
fn is_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// `true` when a string renders unquoted without ambiguity: a bare
/// word that the value parser maps straight back to `Str`.
fn is_bare_word(s: &str) -> bool {
    if s.is_empty()
        || !s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '/'))
    {
        return false;
    }
    // Anything the scalar parser wouldn't map straight back to `Str`
    // (a number, a unit-suffixed value, a parse error) must be quoted.
    matches!(parse_scalar(s, 0), Ok(ConfigValue::Str(_)))
}

fn render_quoted(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Splits a value text on top-level commas (outside quotes).
fn split_list(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in text.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            ',' if !in_string => {
                parts.push(text[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    parts.push(text[start..].trim());
    parts
}

fn parse_value(text: &str, line: usize) -> Result<ConfigValue, ConfigError> {
    if text.is_empty() {
        return Err(ConfigError::at(line, "missing value after `=`"));
    }
    let parts = split_list(text);
    if parts.len() == 1 {
        return parse_scalar(parts[0], line);
    }
    let items = parts
        .into_iter()
        .map(|part| {
            if part.is_empty() {
                Err(ConfigError::at(line, "empty element in list value"))
            } else {
                parse_scalar(part, line)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ConfigValue::List(items))
}

/// Unit suffixes, longest first so `MiB/s` wins over `MiB` and `B`.
/// Multipliers are exact for the integer forms.
const DURATION_UNITS: [(&str, u64); 4] =
    [("ns", 1), ("us", 1_000), ("ms", 1_000_000), ("s", 1_000_000_000)];
const SIZE_UNITS: [(&str, u64); 4] = [("KiB", 1 << 10), ("MiB", 1 << 20), ("GiB", 1 << 30), ("B", 1)];
const RATE_UNITS: [(&str, f64); 4] = [
    ("KiB/s", 1024.0),
    ("MiB/s", 1024.0 * 1024.0),
    ("GiB/s", 1024.0 * 1024.0 * 1024.0),
    ("B/s", 1.0),
];

fn parse_scalar(text: &str, line: usize) -> Result<ConfigValue, ConfigError> {
    debug_assert!(!text.is_empty());
    if let Some(quoted) = text.strip_prefix('"') {
        return parse_quoted(quoted, line);
    }
    match text {
        "true" => return Ok(ConfigValue::Bool(true)),
        "false" => return Ok(ConfigValue::Bool(false)),
        _ => {}
    }
    // Numeric-looking values (with or without a unit suffix) start with
    // a digit; everything else is a bare word.
    if !text.starts_with(|c: char| c.is_ascii_digit()) {
        if text.chars().all(|c| {
            c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '/')
        }) {
            return Ok(ConfigValue::Str(text.to_string()));
        }
        return Err(ConfigError::at(
            line,
            format!("invalid value {text:?} (quote strings containing punctuation)"),
        ));
    }
    // Unit suffixes: bandwidth first (contains '/'), then size, then
    // duration ("s" last so it never shadows "ns"/"us"/"ms").
    for (unit, mult) in RATE_UNITS {
        if let Some(number) = text.strip_suffix(unit) {
            let v = parse_number(number.trim_end(), line, text)?;
            return Ok(ConfigValue::Rate(number_as_f64(&v) * mult));
        }
    }
    for (unit, mult) in SIZE_UNITS {
        if let Some(number) = text.strip_suffix(unit) {
            let v = parse_number(number.trim_end(), line, text)?;
            return match v {
                ConfigValue::Int(n) => n
                    .checked_mul(mult)
                    .map(ConfigValue::Size)
                    .ok_or_else(|| ConfigError::at(line, format!("size {text:?} overflows"))),
                _ => Err(ConfigError::at(line, format!("size {text:?} must be an integer"))),
            };
        }
    }
    for (unit, mult) in DURATION_UNITS {
        if let Some(number) = text.strip_suffix(unit) {
            let v = parse_number(number.trim_end(), line, text)?;
            return match v {
                ConfigValue::Int(n) => n.checked_mul(mult).map(ConfigValue::Duration).ok_or_else(
                    || ConfigError::at(line, format!("duration {text:?} overflows")),
                ),
                _ => {
                    Err(ConfigError::at(line, format!("duration {text:?} must be an integer")))
                }
            };
        }
    }
    parse_number(text, line, text)
}

fn parse_quoted(rest: &str, line: usize) -> Result<ConfigValue, ConfigError> {
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next() {
            None => return Err(ConfigError::at(line, "unterminated string")),
            Some('"') => break,
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => {
                    return Err(ConfigError::at(
                        line,
                        format!(
                            "invalid escape \\{} in string (only \\\" and \\\\ are supported)",
                            other.map(String::from).unwrap_or_default()
                        ),
                    ))
                }
            },
            Some(c) => out.push(c),
        }
    }
    let trailing: String = chars.collect();
    if !trailing.trim().is_empty() {
        return Err(ConfigError::at(
            line,
            format!("unexpected {:?} after closing quote", trailing.trim()),
        ));
    }
    Ok(ConfigValue::Str(out))
}

/// Parses a bare number: `u64` (with `_` separators) or finite `f64`.
/// `original` is the full token, for diagnostics on suffixed values.
fn parse_number(text: &str, line: usize, original: &str) -> Result<ConfigValue, ConfigError> {
    let bad = || ConfigError::at(line, format!("invalid number {original:?}"));
    if text.is_empty() {
        return Err(bad());
    }
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if cleaned.chars().all(|c| c.is_ascii_digit()) {
        return cleaned.parse::<u64>().map(ConfigValue::Int).map_err(|_| bad());
    }
    let value: f64 = cleaned.parse().map_err(|_| bad())?;
    if !value.is_finite() {
        return Err(ConfigError::at(line, format!("non-finite number {original:?}")));
    }
    Ok(ConfigValue::Float(value))
}

fn number_as_f64(v: &ConfigValue) -> f64 {
    match v {
        ConfigValue::Int(n) => *n as f64,
        ConfigValue::Float(f) => *f,
        _ => unreachable!("parse_number returns Int or Float"),
    }
}

/// A strict schema reader over one [`ConfigSection`].
///
/// Domain crates consume a section through `take_*` accessors and then
/// call [`FieldReader::finish`], which rejects any key that was never
/// requested — with a near-miss suggestion against the requested key
/// set. That makes "unknown key" diagnostics automatic and uniform:
///
/// ```
/// use neomem_types::config::{ConfigDoc, FieldReader};
///
/// let doc = ConfigDoc::parse("[tenant]\nworkload = gups\nwieght = 2\n").unwrap();
/// let section = &doc.sections[0];
/// let mut r = FieldReader::new(section);
/// let _ = r.take_str("workload");
/// let _ = r.take_u64("weight");
/// let err = r.finish().unwrap_err();
/// assert_eq!(
///     err.to_string(),
///     "line 3: unknown key \"wieght\" in [tenant] (did you mean \"weight\"?)"
/// );
/// ```
#[derive(Debug)]
pub struct FieldReader<'a> {
    section: &'a ConfigSection,
    taken: Vec<bool>,
    known: Vec<&'static str>,
}

impl<'a> FieldReader<'a> {
    /// Starts reading `section`.
    pub fn new(section: &'a ConfigSection) -> Self {
        Self { section, taken: vec![false; section.entries.len()], known: Vec::new() }
    }

    /// The section under read.
    pub fn section(&self) -> &'a ConfigSection {
        self.section
    }

    /// The 1-based line of `key` in this section, falling back to the
    /// section header line — error-reporting helper for cross-field
    /// checks done after the reader finished.
    pub fn line_of(&self, key: &str) -> usize {
        self.section.get(key).map_or(self.section.line, |e| e.line)
    }

    fn err(&self, line: usize, msg: impl fmt::Display) -> ConfigError {
        ConfigError::at(line, format!("{msg} in {}", self.section.label()))
    }

    /// Marks `key` as known and returns its entry, if present.
    pub fn take(&mut self, key: &'static str) -> Option<&'a ConfigEntry> {
        if !self.known.contains(&key) {
            self.known.push(key);
        }
        let (i, entry) =
            self.section.entries.iter().enumerate().find(|(_, e)| e.key == key)?;
        self.taken[i] = true;
        Some(entry)
    }

    /// Requires `key` to be present.
    ///
    /// # Errors
    ///
    /// Fails with a section-labelled message when the key is missing.
    pub fn req(&mut self, key: &'static str) -> Result<&'a ConfigEntry, ConfigError> {
        self.take(key).ok_or_else(|| {
            ConfigError::at(
                self.section.line,
                format!("missing required key {key:?} in {}", self.section.label()),
            )
        })
    }

    /// Optional string value.
    ///
    /// # Errors
    ///
    /// Fails when the key is present but not a string.
    pub fn take_str(&mut self, key: &'static str) -> Result<Option<String>, ConfigError> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => match &entry.value {
                ConfigValue::Str(s) => Ok(Some(s.clone())),
                other => Err(self.err(
                    entry.line,
                    format!("key {key:?} wants a string, found {}", other.type_name()),
                )),
            },
        }
    }

    /// Required string value.
    ///
    /// # Errors
    ///
    /// Fails when the key is missing or not a string.
    pub fn req_str(&mut self, key: &'static str) -> Result<String, ConfigError> {
        let entry = self.req(key)?;
        match &entry.value {
            ConfigValue::Str(s) => Ok(s.clone()),
            other => Err(self.err(
                entry.line,
                format!("key {key:?} wants a string, found {}", other.type_name()),
            )),
        }
    }

    /// Optional integer value.
    ///
    /// # Errors
    ///
    /// Fails when the key is present but not an integer.
    pub fn take_u64(&mut self, key: &'static str) -> Result<Option<u64>, ConfigError> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => match entry.value {
                ConfigValue::Int(v) => Ok(Some(v)),
                ref other => Err(self.err(
                    entry.line,
                    format!("key {key:?} wants an integer, found {}", other.type_name()),
                )),
            },
        }
    }

    /// Required integer value.
    ///
    /// # Errors
    ///
    /// Fails when the key is missing or not an integer.
    pub fn req_u64(&mut self, key: &'static str) -> Result<u64, ConfigError> {
        let entry = self.req(key)?;
        match entry.value {
            ConfigValue::Int(v) => Ok(v),
            ref other => Err(self.err(
                entry.line,
                format!("key {key:?} wants an integer, found {}", other.type_name()),
            )),
        }
    }

    /// Required integer within `[min, max]`.
    ///
    /// # Errors
    ///
    /// Fails when missing, mistyped or out of range (the message names
    /// the accepted range).
    pub fn req_u64_range(
        &mut self,
        key: &'static str,
        min: u64,
        max: u64,
    ) -> Result<u64, ConfigError> {
        let line = self.line_of(key);
        let v = self.req_u64(key)?;
        self.check_range(key, v, min, max, line)?;
        Ok(v)
    }

    /// Optional integer within `[min, max]`.
    ///
    /// # Errors
    ///
    /// Fails when present but mistyped or out of range.
    pub fn take_u64_range(
        &mut self,
        key: &'static str,
        min: u64,
        max: u64,
    ) -> Result<Option<u64>, ConfigError> {
        let line = self.line_of(key);
        match self.take_u64(key)? {
            None => Ok(None),
            Some(v) => {
                self.check_range(key, v, min, max, line)?;
                Ok(Some(v))
            }
        }
    }

    fn check_range(
        &self,
        key: &'static str,
        v: u64,
        min: u64,
        max: u64,
        line: usize,
    ) -> Result<(), ConfigError> {
        if v < min || v > max {
            let range = if max == u64::MAX {
                format!("at least {min}")
            } else {
                format!("{min}..={max}")
            };
            return Err(self.err(line, format!("key {key:?} is {v}, want {range}")));
        }
        Ok(())
    }

    /// Optional duration in nanoseconds (requires a unit suffix).
    ///
    /// # Errors
    ///
    /// Fails when the key is present but not a duration.
    pub fn take_duration_ns(&mut self, key: &'static str) -> Result<Option<u64>, ConfigError> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => match entry.value {
                ConfigValue::Duration(ns) => Ok(Some(ns)),
                ref other => Err(self.err(
                    entry.line,
                    format!(
                        "key {key:?} wants a duration (e.g. 8ms, 118ns), found {}",
                        other.type_name()
                    ),
                )),
            },
        }
    }

    /// Required duration in nanoseconds.
    ///
    /// # Errors
    ///
    /// Fails when the key is missing or not a duration.
    pub fn req_duration_ns(&mut self, key: &'static str) -> Result<u64, ConfigError> {
        let line = self.line_of(key);
        self.req(key)?;
        // Re-take to reuse the typed accessor's message.
        self.take_duration_ns(key)?
            .ok_or_else(|| self.err(line, format!("missing required key {key:?}")))
    }

    /// Optional size in bytes (requires a unit suffix).
    ///
    /// # Errors
    ///
    /// Fails when the key is present but not a size.
    pub fn take_size_bytes(&mut self, key: &'static str) -> Result<Option<u64>, ConfigError> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => match entry.value {
                ConfigValue::Size(bytes) => Ok(Some(bytes)),
                ref other => Err(self.err(
                    entry.line,
                    format!(
                        "key {key:?} wants a size (e.g. 8KiB, 512KiB), found {}",
                        other.type_name()
                    ),
                )),
            },
        }
    }

    /// Optional bandwidth in bytes per second (requires a `/s` suffix).
    ///
    /// # Errors
    ///
    /// Fails when the key is present but not a bandwidth.
    pub fn take_rate(&mut self, key: &'static str) -> Result<Option<f64>, ConfigError> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => match entry.value {
                ConfigValue::Rate(bps) => Ok(Some(bps)),
                ref other => Err(self.err(
                    entry.line,
                    format!(
                        "key {key:?} wants a bandwidth (e.g. 30GiB/s), found {}",
                        other.type_name()
                    ),
                )),
            },
        }
    }

    /// Rejects every entry that no `take_*`/`req_*` call asked for,
    /// suggesting the closest requested key.
    ///
    /// # Errors
    ///
    /// Fails on the first unknown key, in source order.
    pub fn finish(self) -> Result<(), ConfigError> {
        for (entry, taken) in self.section.entries.iter().zip(&self.taken) {
            if *taken {
                continue;
            }
            let hint = suggest::closest(&entry.key, self.known.iter().copied())
                .map(|k| format!(" (did you mean {k:?}?)"))
                .unwrap_or_default();
            return Err(ConfigError::at(
                entry.line,
                format!("unknown key {:?} in {}{hint}", entry.key, self.section.label()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_entries_and_comments() {
        let doc = ConfigDoc::parse(
            "# header comment\nschema = 1\nname = web-burst # trailing\n\n[tenant]\nworkload = gups\nrss_pages = 2_048\n\n[tenant]\nworkload = silo\ntitle = \"quoted # not a comment\"\n",
        )
        .unwrap();
        assert_eq!(doc.root.entries.len(), 2);
        assert_eq!(doc.root.get("schema").unwrap().value, ConfigValue::Int(1));
        assert_eq!(
            doc.root.get("name").unwrap().value,
            ConfigValue::Str("web-burst".into())
        );
        assert_eq!(doc.sections.len(), 2);
        assert_eq!(doc.sections_named("tenant").count(), 2);
        assert_eq!(doc.sections[0].get("rss_pages").unwrap().value, ConfigValue::Int(2048));
        assert_eq!(
            doc.sections[1].get("title").unwrap().value,
            ConfigValue::Str("quoted # not a comment".into())
        );
        assert_eq!(doc.sections[1].get("workload").unwrap().line, 10);
    }

    #[test]
    fn value_types_cover_units() {
        let doc = ConfigDoc::parse(
            "i = 42\nf = 0.75\nb = true\ns = gups\nq = \"a b\"\nd = 8ms\nd2 = 118ns\nsz = 512KiB\nr = 30GiB/s\nl = 1, 2, 4\nmixed = gups, 8ms\n",
        )
        .unwrap();
        let get = |k: &str| doc.root.get(k).unwrap().value.clone();
        assert_eq!(get("i"), ConfigValue::Int(42));
        assert_eq!(get("f"), ConfigValue::Float(0.75));
        assert_eq!(get("b"), ConfigValue::Bool(true));
        assert_eq!(get("s"), ConfigValue::Str("gups".into()));
        assert_eq!(get("q"), ConfigValue::Str("a b".into()));
        assert_eq!(get("d"), ConfigValue::Duration(8_000_000));
        assert_eq!(get("d2"), ConfigValue::Duration(118));
        assert_eq!(get("sz"), ConfigValue::Size(512 << 10));
        assert_eq!(get("r"), ConfigValue::Rate(30.0 * 1024.0 * 1024.0 * 1024.0));
        assert_eq!(
            get("l"),
            ConfigValue::List(vec![
                ConfigValue::Int(1),
                ConfigValue::Int(2),
                ConfigValue::Int(4)
            ])
        );
        assert_eq!(
            get("mixed"),
            ConfigValue::List(vec![
                ConfigValue::Str("gups".into()),
                ConfigValue::Duration(8_000_000)
            ])
        );
    }

    #[test]
    fn diagnostics_carry_line_numbers() {
        let err = |text: &str| ConfigDoc::parse(text).unwrap_err();
        assert_eq!(err("[tenant\n").to_string(), "line 1: section header is missing ']'");
        assert_eq!(
            err("a = 1\nb 2\n").to_string(),
            "line 2: expected `key = value` or `[section]`, found \"b 2\""
        );
        assert_eq!(err("a = 1\na = 2\n").line, 2);
        assert!(err("a = 1\na = 2\n").to_string().contains("duplicate key"));
        assert_eq!(err("x = \n").to_string(), "line 1: missing value after `=`");
        assert_eq!(err("x = 1e999\n").to_string(), "line 1: non-finite number \"1e999\"");
        assert_eq!(err("x = 12qq\n").to_string(), "line 1: invalid number \"12qq\"");
        assert_eq!(err("x = \"abc\n").to_string(), "line 1: unterminated string");
        assert_eq!(err("x = 4.5KiB\n").to_string(), "line 1: size \"4.5KiB\" must be an integer");
        assert!(err("[ten ant]\n").to_string().contains("invalid section name"));
    }

    #[test]
    fn render_round_trips_structurally() {
        let text = "schema = 1\nname = duel\nratio = 0.5\n\n[tenant]\nworkload = gups\nrss_pages = 2048\nburst = 8ms\nbw = 12GiB/s\nl1 = 8KiB\nlist = a, 1, 2us\ntitle = \"a # b\"\n";
        let doc = ConfigDoc::parse(text).unwrap();
        let rendered = doc.render();
        let reparsed = ConfigDoc::parse(&rendered).unwrap();
        assert!(doc.structural_eq(&reparsed), "{rendered}");
        // Rendering is a fixed point.
        assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn duration_and_size_render_in_largest_exact_unit() {
        let mut out = String::new();
        ConfigValue::Duration(8_000_000).render(&mut out);
        assert_eq!(out, "8ms");
        out.clear();
        ConfigValue::Duration(1_500).render(&mut out);
        assert_eq!(out, "1500ns");
        out.clear();
        ConfigValue::Size(512 << 10).render(&mut out);
        assert_eq!(out, "512KiB");
        out.clear();
        ConfigValue::Size(100).render(&mut out);
        assert_eq!(out, "100B");
        out.clear();
        ConfigValue::Rate(1024.0).render(&mut out);
        assert_eq!(out, "1024.0B/s");
    }

    #[test]
    fn field_reader_types_ranges_and_unknown_keys() {
        let doc = ConfigDoc::parse(
            "[m]\nwidth = 512\ndepth = 9\nlat = 8ms\ncap = 8KiB\nbw = 1GiB/s\n",
        )
        .unwrap();
        let mut r = FieldReader::new(&doc.sections[0]);
        assert_eq!(r.req_u64("width").unwrap(), 512);
        let err = r.req_u64_range("depth", 1, 4).unwrap_err();
        assert_eq!(err.to_string(), "line 3: key \"depth\" is 9, want 1..=4 in [m]");
        assert_eq!(r.take_duration_ns("lat").unwrap(), Some(8_000_000));
        assert_eq!(r.take_size_bytes("cap").unwrap(), Some(8 << 10));
        assert_eq!(r.take_rate("bw").unwrap(), Some(1024.0 * 1024.0 * 1024.0));
        assert!(r.finish().is_ok());

        // Type mismatch names both the wanted and found types.
        let doc = ConfigDoc::parse("[m]\nwidth = fast\n").unwrap();
        let mut r = FieldReader::new(&doc.sections[0]);
        let err = r.req_u64("width").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: key \"width\" wants an integer, found string in [m]"
        );

        // Missing required key points at the section header.
        let doc = ConfigDoc::parse("[tenant]\nseed = 1\n").unwrap();
        let mut r = FieldReader::new(&doc.sections[0]);
        let err = r.req_str("workload").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: missing required key \"workload\" in [tenant]"
        );
    }

    #[test]
    fn never_panics_on_junk() {
        for junk in [
            "[", "]", "=", "==", "\"", "\\", "[a]b", "a=\"\\x\"", "a==b", "1 = 2", "-a = 1",
            "a = 1,,2", "a = ,", "π = 3", "a = π", "a = 1__0", "a = 9999999999999999999999",
            "a = 10000000GiB", "a = \"x\" y",
        ] {
            let _ = ConfigDoc::parse(junk);
        }
        assert_eq!(
            ConfigDoc::parse("a = 1__0\n").unwrap().root.get("a").unwrap().value,
            ConfigValue::Int(10)
        );
        assert!(ConfigDoc::parse("a = 9999999999999999999999\n").is_err());
        assert!(ConfigDoc::parse("a = 100000000000GiB\n").is_err(), "size overflow");
    }
}
