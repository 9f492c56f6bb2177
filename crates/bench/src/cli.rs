//! The one command-line walker and the one JSON report writer the bench
//! binaries share.
//!
//! A binary walks its arguments with an [`Args`] inside the closure it
//! hands to [`parse`]. The walker returns a [`CliError`] instead of
//! exiting, so a parser is unit-testable; [`parse`] turns the error into
//! the usage text on stderr (`--help`, exit 0) or a [`die`] (exit 2).
//! Reports are built as a [`Json`] object, whose string values are
//! escaped.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

/// Why a command line was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print the usage and exit 0.
    Help,
    /// A malformed command line, with the message to die on.
    Bad(String),
}

/// A command line walked one argument at a time.
#[derive(Debug)]
pub struct Args {
    rest: std::vec::IntoIter<String>,
    current: String,
}

impl Args {
    /// Walks `args` (the program name already skipped).
    pub fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args {
            rest: args.into_iter().collect::<Vec<_>>().into_iter(),
            current: String::new(),
        }
    }

    /// The next argument, or `None` at the end. `--help` and `-h` are
    /// [`CliError::Help`] wherever they appear.
    pub fn next_arg(&mut self) -> Result<Option<String>, CliError> {
        let Some(arg) = self.rest.next() else {
            return Ok(None);
        };
        if arg == "--help" || arg == "-h" {
            return Err(CliError::Help);
        }
        self.current = arg.clone();
        Ok(Some(arg))
    }

    /// The value following the current flag.
    pub fn value(&mut self) -> Result<String, CliError> {
        self.rest
            .next()
            .ok_or_else(|| CliError::Bad(format!("{} needs a value", self.current)))
    }

    /// The value following the current flag, parsed as a number.
    pub fn number<T: FromStr>(&mut self) -> Result<T, CliError> {
        number(&self.value()?)
    }

    /// The value following the current flag, as a comma-separated list
    /// of numbers.
    pub fn list<T: FromStr>(&mut self) -> Result<Vec<T>, CliError> {
        self.value()?.split(',').map(|s| number(s.trim())).collect()
    }

    /// The error for an argument the binary does not know.
    pub fn unknown(&self) -> CliError {
        CliError::Bad(format!("unknown argument: {}", self.current))
    }
}

fn number<T: FromStr>(s: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::Bad(format!("bad numeric value: {s}")))
}

/// Parses this process's arguments with `parse`. On `--help` prints
/// `usage: {usage}` and exits 0; on a bad command line dies.
pub fn parse<T>(usage: &str, parse: impl FnOnce(&mut Args) -> Result<T, CliError>) -> T {
    match parse(&mut Args::new(std::env::args().skip(1))) {
        Ok(parsed) => parsed,
        Err(CliError::Help) => {
            eprintln!("usage: {usage}");
            std::process::exit(0);
        }
        Err(CliError::Bad(msg)) => die(&msg),
    }
}

/// This program's name, the prefix of every message it prints.
pub fn prog() -> String {
    std::env::args()
        .next()
        .and_then(|arg0| {
            Path::new(&arg0)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "ftd-bench".to_owned())
}

/// Prints `{prog}: {msg}` and exits 2: the run could not be carried
/// out, which is distinct from a run that failed its checks (exit 1).
pub fn die(msg: &str) -> ! {
    eprintln!("{}: {msg}", prog());
    std::process::exit(2);
}

/// A JSON object built field by field; fields render in the order they
/// were added.
#[derive(Debug, Clone, Default)]
pub struct Json {
    fields: Vec<(String, Value)>,
}

#[derive(Debug, Clone)]
enum Value {
    /// Already-rendered JSON: a number, `true`, `false`, `null` or a
    /// quoted string.
    Raw(String),
    Object(Json),
    Array(Vec<Json>),
}

impl Json {
    /// An empty object.
    pub fn new() -> Json {
        Json::default()
    }

    /// A number or boolean field, written as `value`'s `Display` form.
    pub fn raw(mut self, key: &str, value: impl Display) -> Json {
        self.fields
            .push((key.to_owned(), Value::Raw(value.to_string())));
        self
    }

    /// A number field, or `null` when there is none.
    pub fn opt(self, key: &str, value: Option<impl Display>) -> Json {
        match value {
            Some(value) => self.raw(key, value),
            None => self.raw(key, "null"),
        }
    }

    /// A string field, quoted and escaped.
    pub fn str(mut self, key: &str, value: &str) -> Json {
        self.fields.push((key.to_owned(), Value::Raw(quote(value))));
        self
    }

    /// A nested object field.
    pub fn object(mut self, key: &str, value: Json) -> Json {
        self.fields.push((key.to_owned(), Value::Object(value)));
        self
    }

    /// An array-of-objects field.
    pub fn array(mut self, key: &str, items: Vec<Json>) -> Json {
        self.fields.push((key.to_owned(), Value::Array(items)));
        self
    }

    /// The object as indented JSON text, with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes the rendered object to `path`, dying if that fails.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        out.push('{');
        for (i, (key, value)) in self.fields.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            indent(out, depth + 1);
            out.push_str(&quote(key));
            out.push_str(": ");
            match value {
                Value::Raw(text) => out.push_str(text),
                Value::Object(object) => object.render_into(out, depth + 1),
                Value::Array(items) => {
                    out.push('[');
                    for (j, item) in items.iter().enumerate() {
                        out.push_str(if j == 0 { "\n" } else { ",\n" });
                        indent(out, depth + 2);
                        item.render_into(out, depth + 2);
                    }
                    if !items.is_empty() {
                        out.push('\n');
                        indent(out, depth + 1);
                    }
                    out.push(']');
                }
            }
        }
        if !self.fields.is_empty() {
            out.push('\n');
            indent(out, depth);
        }
        out.push('}');
    }
}

fn indent(out: &mut String, depth: usize) {
    out.extend(std::iter::repeat_n("  ", depth));
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Opts {
        seed: u64,
        verbose: bool,
        shards: Vec<usize>,
    }

    fn parse_opts(args: &[&str]) -> Result<Opts, CliError> {
        let mut args = Args::new(args.iter().map(|a| a.to_string()));
        let mut opts = Opts::default();
        while let Some(arg) = args.next_arg()? {
            match arg.as_str() {
                "--seed" => opts.seed = args.number()?,
                "--verbose" => opts.verbose = true,
                "--shards" => opts.shards = args.list()?,
                _ => return Err(args.unknown()),
            }
        }
        Ok(opts)
    }

    fn bad(msg: &str) -> Result<Opts, CliError> {
        Err(CliError::Bad(msg.to_owned()))
    }

    #[test]
    fn flags_values_and_comma_lists_parse() {
        assert_eq!(
            parse_opts(&["--seed", "7", "--shards", "1, 4,8", "--verbose"]),
            Ok(Opts {
                seed: 7,
                verbose: true,
                shards: vec![1, 4, 8],
            })
        );
        assert_eq!(parse_opts(&[]), Ok(Opts::default()));
    }

    #[test]
    fn an_unknown_flag_is_named() {
        assert_eq!(
            parse_opts(&["--sede", "7"]),
            bad("unknown argument: --sede")
        );
    }

    #[test]
    fn a_missing_value_names_its_flag() {
        assert_eq!(parse_opts(&["--seed"]), bad("--seed needs a value"));
    }

    #[test]
    fn a_bad_number_is_named_even_inside_a_list() {
        assert_eq!(parse_opts(&["--seed", "x"]), bad("bad numeric value: x"));
        assert_eq!(
            parse_opts(&["--shards", "1,two"]),
            bad("bad numeric value: two")
        );
    }

    #[test]
    fn help_wins_wherever_it_appears() {
        assert_eq!(parse_opts(&["--help"]), Err(CliError::Help));
        assert_eq!(parse_opts(&["--seed", "1", "-h"]), Err(CliError::Help));
    }

    /// Decodes the JSON string literal at the start of `s` (the inverse
    /// of [`quote`] for the escapes it emits); returns it and the rest.
    fn unquote(s: &str) -> (String, &str) {
        let body = s.strip_prefix('"').expect("opening quote");
        let mut out = String::new();
        let mut chars = body.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return (out, &body[i + 1..]),
                '\\' => match chars.next().expect("escape").1 {
                    'u' => {
                        let hex: String = (0..4).map(|_| chars.next().expect("hex").1).collect();
                        let code = u32::from_str_radix(&hex, 16).expect("hex digits");
                        out.push(char::from_u32(code).expect("scalar"));
                    }
                    escaped => out.push(escaped),
                },
                c => {
                    assert!(u32::from(c) >= 0x20, "raw control character in {s:?}");
                    out.push(c);
                }
            }
        }
        panic!("unterminated string in {s:?}");
    }

    #[test]
    fn strings_with_quotes_backslashes_and_controls_round_trip() {
        let path = "soak \"data\"\\dir\n\u{1}";
        let text = Json::new().str("data_dir", path).raw("n", 3).render();
        let value = text.split_once("\"data_dir\": ").expect("key rendered").1;
        let (decoded, rest) = unquote(value);
        assert_eq!(decoded, path);
        assert!(rest.starts_with(",\n"), "{text}");
    }

    #[test]
    fn nested_objects_and_arrays_render_as_json() {
        let text = Json::new()
            .raw("passed", true)
            .opt("speedup", None::<f64>)
            .object("engine", Json::new().raw("forwarded", 4))
            .array("runs", vec![Json::new().raw("shards", 1), Json::new()])
            .array("none", Vec::new())
            .render();
        assert_eq!(
            text,
            "{\n  \"passed\": true,\n  \"speedup\": null,\n  \"engine\": {\n    \
             \"forwarded\": 4\n  },\n  \"runs\": [\n    {\n      \"shards\": 1\n    },\n    \
             {}\n  ],\n  \"none\": []\n}\n"
        );
    }
}
