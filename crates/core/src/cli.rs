//! The command-line front end shared by the workspace's binaries
//! (`hoiho`, `hoiho-serve`, `hoiho-fuzz`, `experiments`): one argument
//! reader, one hostname reader and one exit-status rule — 2 for bad
//! arguments, 1 for failures.
//!
//! A binary reads its subcommand, then the options that subcommand
//! declares, then its positionals, and finally calls [`Args::done`],
//! which rejects whatever is left. Every option takes a value
//! (`--name value`), may appear anywhere after the subcommand, and may
//! be given at most once. A word starting with `--` is never a
//! positional, so an option the subcommand does not declare is an
//! error rather than a file name.

use std::fmt::{Debug, Display};
use std::io::BufRead;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;

/// A command line that does not parse. [`run`] prints it with the
/// usage text and exits 2.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(String);

/// The unread arguments of one command line, consumed as they are read.
pub struct Args {
    /// The binary and the subcommands read so far (`hoiho-serve
    /// scenario run`), which prefix every error.
    context: String,
    unread: Vec<String>,
}

fn is_option(arg: &str) -> bool {
    arg.starts_with("--")
}

impl Args {
    /// The arguments after the binary name `bin`.
    fn new(bin: &str, args: impl IntoIterator<Item = String>) -> Args {
        Args { context: bin.to_string(), unread: args.into_iter().collect() }
    }

    /// An argument error prefixed with the binary and subcommand.
    pub fn error(&self, msg: impl Display) -> ArgError {
        ArgError(format!("{}: {msg}", self.context))
    }

    /// The next word, as a subcommand. Call it first (and again for a
    /// nested subcommand such as `scenario run`).
    pub fn subcommand(&mut self) -> Result<String, ArgError> {
        if self.unread.is_empty() {
            return Err(self.error("missing subcommand"));
        }
        let word = self.unread.remove(0);
        self.context.push(' ');
        self.context.push_str(&word);
        Ok(word)
    }

    /// Removes `name value` from wherever it appears and parses the
    /// value; `None` when the option is absent.
    pub fn opt<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, ArgError> {
        self.opt_with(name, |v| v.parse().ok())
    }

    /// [`Args::opt`] with its own value parser (`None` = malformed).
    pub fn opt_with<T>(
        &mut self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ArgError> {
        let Some(i) = self.unread.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if self.unread.get(i + 1).is_none_or(|v| is_option(v)) {
            return Err(self.error(format_args!("{name} needs a value")));
        }
        let value = self.unread.remove(i + 1);
        self.unread.remove(i);
        if self.unread.iter().any(|a| a == name) {
            return Err(self.error(format_args!("{name} given twice")));
        }
        match parse(&value) {
            Some(v) => Ok(Some(v)),
            None => Err(self.error(format_args!("bad {name} value {value:?}"))),
        }
    }

    /// [`Args::opt`] whose value must lie in `range`.
    pub fn opt_in<T: FromStr + PartialOrd + Debug>(
        &mut self,
        name: &str,
        range: RangeInclusive<T>,
    ) -> Result<Option<T>, ArgError> {
        match self.opt(name)? {
            Some(v) if !range.contains(&v) => {
                Err(self.error(format_args!("{name} must be in {range:?}")))
            }
            v => Ok(v),
        }
    }

    /// The next positional, parsed; `what` names it in errors
    /// (`<model-file>`). Read the subcommand's options first.
    pub fn positional<T: FromStr>(&mut self, what: &str) -> Result<T, ArgError> {
        self.opt_positional(what)?.ok_or_else(|| self.error(format_args!("missing {what}")))
    }

    /// The next positional if one is left.
    pub fn opt_positional<T: FromStr>(&mut self, what: &str) -> Result<Option<T>, ArgError> {
        let Some(next) = self.unread.first() else {
            return Ok(None);
        };
        if is_option(next) {
            return Err(self.unexpected(next));
        }
        let word = self.unread.remove(0);
        match word.parse() {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(self.error(format_args!("bad {what} value {word:?}"))),
        }
    }

    /// Every positional left, at least `min` of them.
    pub fn rest<T: FromStr>(&mut self, what: &str, min: usize) -> Result<Vec<T>, ArgError> {
        let mut out = Vec::new();
        while let Some(v) = self.opt_positional(what)? {
            out.push(v);
        }
        if out.len() < min {
            return Err(self.error(format_args!("missing {what}")));
        }
        Ok(out)
    }

    /// Ends the reading: an option the subcommand did not read, or a
    /// surplus positional, is an error.
    pub fn done(&self) -> Result<(), ArgError> {
        match self.unread.first() {
            Some(arg) => Err(self.unexpected(arg)),
            None => Ok(()),
        }
    }

    fn unexpected(&self, arg: &str) -> ArgError {
        self.error(format_args!("unexpected argument {arg:?}"))
    }
}

/// A binary's `main`: reads the process arguments with `command`,
/// which returns the command's outcome once [`Args::done`] passed. An
/// [`ArgError`] prints with `usage` and exits 2; a failed command
/// prints `bin: message` and exits 1.
pub fn run(
    bin: &str,
    usage: &str,
    command: impl FnOnce(&mut Args) -> Result<Result<(), String>, ArgError>,
) -> ExitCode {
    let mut args = Args::new(bin, std::env::args().skip(1));
    match command(&mut args) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(msg)) => {
            eprintln!("{bin}: {msg}");
            ExitCode::FAILURE
        }
        Err(ArgError(msg)) => {
            eprintln!("{msg}");
            eprint!("{usage}");
            ExitCode::from(2)
        }
    }
}

/// Hostnames, one per line, from the file at `path` or from stdin when
/// `None`: lines are trimmed, and blank lines and `#` comments are
/// skipped. Lines stream to the consumer; the input is never read whole.
pub fn hostnames(
    path: Option<&str>,
) -> Result<impl Iterator<Item = Result<String, String>>, String> {
    let input: Box<dyn BufRead> = match path {
        Some(p) => Box::new(std::io::BufReader::new(
            std::fs::File::open(p).map_err(|e| format!("cannot open {p}: {e}"))?,
        )),
        None => Box::new(std::io::stdin().lock()),
    };
    Ok(input.lines().filter_map(|line| match line {
        Ok(line) => {
            let host = line.trim();
            (!host.is_empty() && !host.starts_with('#')).then(|| Ok(host.to_string()))
        }
        Err(e) => Some(Err(format!("read error: {e}"))),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new("t", line.split_whitespace().map(String::from))
    }

    #[test]
    fn options_before_between_and_after_positionals() {
        for line in ["serve --n 3 m a", "serve m --n 3 a", "serve m a --n 3"] {
            let mut a = args(line);
            assert_eq!(a.subcommand().unwrap(), "serve");
            assert_eq!(a.opt::<u32>("--n").unwrap(), Some(3), "{line}");
            assert_eq!(a.positional::<String>("<m>").unwrap(), "m", "{line}");
            assert_eq!(a.positional::<String>("<a>").unwrap(), "a", "{line}");
            assert_eq!(a.opt_positional::<u32>("[w]").unwrap(), None, "{line}");
            a.done().unwrap();
        }
        let mut a = args("x");
        a.subcommand().unwrap();
        assert_eq!(a.opt::<u32>("--n").unwrap(), None, "absent option");
        assert_eq!(a.opt_with("--seed", |v| v.strip_prefix("0x").map(String::from)).unwrap(), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        let mut a = args("learn f --trace");
        a.subcommand().unwrap();
        assert_eq!(a.opt::<String>("--trace").unwrap_err().0, "t learn: --trace needs a value");
        let mut a = args("learn --trace --sim 1");
        a.subcommand().unwrap();
        assert!(a.opt::<String>("--trace").is_err(), "an option is not a value");
    }

    #[test]
    fn repeated_option_is_an_error() {
        let mut a = args("serve m a --shards 2 --shards 3");
        a.subcommand().unwrap();
        assert_eq!(a.opt::<u32>("--shards").unwrap_err().0, "t serve: --shards given twice");
    }

    #[test]
    fn malformed_values_are_errors() {
        let mut a = args("serve --shards x");
        a.subcommand().unwrap();
        assert_eq!(a.opt::<u32>("--shards").unwrap_err().0, "t serve: bad --shards value \"x\"");
        let mut a = args("shard m many");
        a.subcommand().unwrap();
        a.positional::<String>("<m>").unwrap();
        assert_eq!(a.positional::<u32>("<N>").unwrap_err().0, "t shard: bad <N> value \"many\"");
        let mut a = args("loadgen --batch 0 --chaos 0.5");
        a.subcommand().unwrap();
        assert_eq!(
            a.opt_in("--batch", 1..=4096usize).unwrap_err().0,
            "t loadgen: --batch must be in 1..=4096"
        );
        assert_eq!(a.opt_in("--chaos", 0.0..=1.0).unwrap(), Some(0.5));
    }

    #[test]
    fn unknown_option_is_left_for_done() {
        let mut a = args("apply c --trace t");
        a.subcommand().unwrap();
        a.positional::<String>("<c>").unwrap();
        let e = a.opt_positional::<String>("[hosts]").unwrap_err();
        assert_eq!(e.0, "t apply: unexpected argument \"--trace\"");
        assert_eq!(a.done().unwrap_err(), e);
    }

    #[test]
    fn surplus_positional_is_an_error() {
        let mut a = args("run stray --iters 1");
        a.subcommand().unwrap();
        assert_eq!(a.opt::<u64>("--iters").unwrap(), Some(1));
        assert_eq!(a.done().unwrap_err().0, "t run: unexpected argument \"stray\"");
    }

    #[test]
    fn missing_positionals_and_subcommands_are_errors() {
        let mut a = args("");
        assert_eq!(a.subcommand().unwrap_err().0, "t: missing subcommand");
        let mut a = args("scenario run");
        a.subcommand().unwrap();
        a.subcommand().unwrap();
        assert_eq!(a.rest::<String>("<file>", 1).unwrap_err().0, "t scenario run: missing <file>");
        let mut a = args("query m h1 h2");
        a.subcommand().unwrap();
        a.positional::<String>("<m>").unwrap();
        assert_eq!(a.rest::<String>("<h>", 0).unwrap(), ["h1", "h2"]);
        assert!(a.positional::<String>("<x>").is_err());
        a.done().unwrap();
    }

    #[test]
    fn hostnames_skip_blanks_and_comments() {
        let dir = std::env::temp_dir().join(format!("hoiho-cli-hosts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hosts.txt");
        std::fs::write(&path, "# header\n  a.example.com \n\n\tb.example.net\n#c.example.org\n")
            .unwrap();
        let got: Result<Vec<String>, String> =
            hostnames(Some(path.to_str().unwrap())).unwrap().collect();
        assert_eq!(got.unwrap(), ["a.example.com", "b.example.net"]);
        assert!(hostnames(Some("/nonexistent/hosts.txt")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
