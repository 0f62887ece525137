//! [`Run`] — the one command-line context every `locert` tool shares.
//!
//! A tool is a function from a [`Run`] to a [`Outcome`]. The context
//! owns the argument list and hands it out through three helpers
//! ([`Run::take_opt`], [`Run::take_parsed`], [`Run::take_flag`]); it
//! resolves and validates the worker count from `--threads` and
//! `LOCERT_THREADS` in one place; it writes every artifact (parent
//! directories created, IO failures reported, never panics); and it maps
//! the result onto one exit contract:
//!
//! - `0` — pass;
//! - `1` — a gate finding (regression, violation, rejection, divergence);
//! - `2` — a usage or IO error.

use locert_trace::journal::{self, JournalSnapshot};
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// The environment variable that sizes the `locert-par` pool when no
/// `--threads` flag is given.
pub(crate) const THREADS_ENV: &str = "LOCERT_THREADS";

/// How a command that ran to completion ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every gate held (exit 0).
    Pass,
    /// A gate found a problem (exit 1).
    Finding,
}

impl Verdict {
    /// `Pass` when `clean`, `Finding` otherwise.
    pub fn from_clean(clean: bool) -> Verdict {
        if clean {
            Verdict::Pass
        } else {
            Verdict::Finding
        }
    }
}

/// Why a command could not run to completion (exit 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Bad arguments or environment; the usage text is printed too.
    Usage(String),
    /// A file or socket could not be read, written, or bound.
    Io(String),
}

/// What a tool returns.
pub type Outcome = Result<Verdict, Failure>;

/// Shorthand for a usage error.
pub fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

/// Shorthand for an IO error.
pub fn io_error(msg: impl Into<String>) -> Failure {
    Failure::Io(msg.into())
}

/// The largest worker count `--threads` or `LOCERT_THREADS` may ask
/// for: each worker is an OS thread, spawned when the pool is built.
const MAX_THREADS: usize = 1024;

/// Validates one thread-count value; `source` names it in the message.
fn parse_threads(source: String, raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!("{source}: thread count must be at least 1")),
        Ok(n) if n > MAX_THREADS => Err(format!(
            "{source}: thread count must be at most {MAX_THREADS}"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{source}: thread count must be an integer")),
    }
}

/// Resolves the worker count from the `--threads` value and the value of
/// `LOCERT_THREADS` (passed in, so callers decide where it comes from).
/// The flag wins; both are validated whenever present, so a zero,
/// non-integer or above-[`MAX_THREADS`] count is an error from either
/// source. `Ok(None)` leaves the pool at its default width.
pub(crate) fn resolve_threads(
    flag: Option<&str>,
    env: Option<&str>,
) -> Result<Option<usize>, String> {
    let env = env
        .map(|raw| parse_threads(format!("{THREADS_ENV}={raw}"), raw))
        .transpose()?;
    let flag = flag
        .map(|raw| parse_threads(format!("--threads {raw}"), raw))
        .transpose()?;
    Ok(flag.or(env))
}

/// The argument list, usage text, and exit contract of one tool run.
pub struct Run {
    tool: String,
    usage: &'static str,
    args: Vec<String>,
}

impl Run {
    /// A context for `tool` (the prefix of every diagnostic) over `args`
    /// (the arguments after the tool name).
    pub fn new(tool: impl Into<String>, usage: &'static str, args: Vec<String>) -> Run {
        Run {
            tool: tool.into(),
            usage,
            args,
        }
    }

    /// Runs `body` under the exit contract: `--help`/`-h` prints the
    /// usage and exits 0; a malformed `LOCERT_THREADS` is a usage error
    /// before `body` starts; otherwise `body`'s outcome becomes the exit
    /// code, with its diagnostic on stderr.
    pub fn main(mut self, body: impl FnOnce(&mut Run) -> Outcome) -> ExitCode {
        if self.take_flag("--help") || self.take_flag("-h") {
            println!("{}", self.usage);
            return ExitCode::SUCCESS;
        }
        let outcome = match resolve_threads(None, env_threads().as_deref()) {
            Ok(_) => body(&mut self),
            Err(msg) => Err(Failure::Usage(msg)),
        };
        self.exit(outcome)
    }

    /// Maps an outcome onto the exit contract, printing failures.
    fn exit(&self, outcome: Outcome) -> ExitCode {
        match outcome {
            Ok(Verdict::Pass) => ExitCode::SUCCESS,
            Ok(Verdict::Finding) => ExitCode::from(1),
            Err(Failure::Usage(msg)) => {
                eprintln!("{}: {msg}\n{}", self.tool, self.usage);
                ExitCode::from(2)
            }
            Err(Failure::Io(msg)) => {
                eprintln!("{}: {msg}", self.tool);
                ExitCode::from(2)
            }
        }
    }

    /// Consumes the first argument (a nested command name).
    pub fn shift(&mut self) -> Option<String> {
        (!self.args.is_empty()).then(|| self.args.remove(0))
    }

    /// Consumes `flag` if present.
    pub fn take_flag(&mut self, flag: &str) -> bool {
        match self.args.iter().position(|a| a == flag) {
            Some(i) => {
                self.args.remove(i);
                true
            }
            None => false,
        }
    }

    /// Consumes `flag VALUE`; `Ok(None)` when the flag is absent.
    pub fn take_opt(&mut self, flag: &str) -> Result<Option<String>, Failure> {
        match self.args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) if i + 1 < self.args.len() => {
                let value = self.args.remove(i + 1);
                self.args.remove(i);
                Ok(Some(value))
            }
            Some(_) => Err(usage(format!("{flag} needs a value"))),
        }
    }

    /// Consumes `flag VALUE` and parses the value.
    pub fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, Failure> {
        match self.take_opt(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| usage(format!("{flag}: bad value {v:?}"))),
        }
    }

    /// Consumes `flag [VALUE]`, where the value is optional: the next
    /// argument is taken when `is_value` accepts it. `None` when the flag
    /// is absent, `Some(None)` when it came without a value.
    pub fn take_optional(
        &mut self,
        flag: &str,
        is_value: impl Fn(&str) -> bool,
    ) -> Option<Option<String>> {
        let i = self.args.iter().position(|a| a == flag)?;
        self.args.remove(i);
        if self.args.get(i).is_some_and(|a| is_value(a)) {
            Some(Some(self.args.remove(i)))
        } else {
            Some(None)
        }
    }

    /// Consumes `--threads N`, resolves it against `LOCERT_THREADS`, and
    /// sizes the global pool. Call before any parallel work.
    pub fn threads(&mut self) -> Result<(), Failure> {
        let flag = self.take_opt("--threads")?;
        let resolved =
            resolve_threads(flag.as_deref(), env_threads().as_deref()).map_err(Failure::Usage)?;
        if let Some(n) = resolved {
            if !crate::configure_threads(n) {
                return Err(usage("--threads must come before any parallel work"));
            }
        }
        Ok(())
    }

    /// The remaining arguments, all positional: any leftover option is a
    /// usage error.
    pub fn positional(&mut self) -> Result<Vec<String>, Failure> {
        if let Some(stray) = self.args.iter().find(|a| a.len() > 1 && a.starts_with('-')) {
            return Err(usage(format!("unknown option {stray:?}")));
        }
        Ok(std::mem::take(&mut self.args))
    }

    /// Exactly `N` positional arguments, described by `what` otherwise.
    pub fn exactly<const N: usize>(&mut self, what: &str) -> Result<[String; N], Failure> {
        <[String; N]>::try_from(self.positional()?).map_err(|_| usage(format!("expected {what}")))
    }

    /// No positional arguments may remain.
    pub fn done(&mut self) -> Result<(), Failure> {
        match self.positional()?.first() {
            Some(extra) => Err(usage(format!("unexpected argument {extra:?}"))),
            None => Ok(()),
        }
    }

    /// Writes `content` to `path`, creating parent directories.
    pub fn write_artifact(path: impl AsRef<Path>, content: &str) -> Result<(), Failure> {
        let path = path.as_ref();
        create_parent(path)?;
        std::fs::write(path, content).map_err(|e| cannot_write(path, &e))
    }

    /// Streams a journal snapshot to `path` as JSONL one buffered line at
    /// a time, so a full ring never needs a second in-memory copy of its
    /// serialization.
    pub fn write_journal(path: impl AsRef<Path>, snap: &JournalSnapshot) -> Result<(), Failure> {
        let path = path.as_ref();
        create_parent(path)?;
        let stream = || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            journal::write_jsonl(snap, &mut out)?;
            out.flush()
        };
        stream().map_err(|e| cannot_write(path, &e))
    }

    /// Writes a `locert-trace/v2` metrics document (see
    /// [`locert_trace::export::metrics_v2`]).
    pub fn write_metrics(
        path: impl AsRef<Path>,
        quick: bool,
        sections: &[(String, f64, locert_trace::Snapshot)],
        journal: Option<&JournalSnapshot>,
    ) -> Result<(), Failure> {
        let doc = locert_trace::export::metrics_v2(quick, sections, journal);
        Run::write_artifact(path, &format!("{doc}\n"))
    }

    /// Reads `path` as text.
    pub fn read(path: impl AsRef<Path>) -> Result<String, Failure> {
        let path = path.as_ref();
        std::fs::read_to_string(path)
            .map_err(|e| io_error(format!("cannot read {}: {e}", path.display())))
    }
}

fn env_threads() -> Option<String> {
    std::env::var_os(THREADS_ENV).map(|v| v.to_string_lossy().into_owned())
}

fn create_parent(path: &Path) -> Result<(), Failure> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => {
            std::fs::create_dir_all(dir).map_err(|e| cannot_write(path, &e))
        }
        _ => Ok(()),
    }
}

fn cannot_write(path: &Path, err: &std::io::Error) -> Failure {
    io_error(format!("cannot write {}: {err}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Run {
        Run::new("t", "usage", args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn thread_count_contract() {
        let zero = "thread count must be at least 1";
        let nan = "thread count must be an integer";
        let huge = "thread count must be at most 1024";
        // (--threads value, LOCERT_THREADS value, resolution)
        let table = [
            (None, None, Ok(None)),
            (Some("3"), None, Ok(Some(3))),
            (None, Some("4"), Ok(Some(4))),
            (None, Some(" 2 "), Ok(Some(2))),
            (Some("3"), Some("4"), Ok(Some(3))),
            (Some("0"), None, Err(format!("--threads 0: {zero}"))),
            (Some("x"), None, Err(format!("--threads x: {nan}"))),
            (Some("-1"), Some("1"), Err(format!("--threads -1: {nan}"))),
            (None, Some("0"), Err(format!("LOCERT_THREADS=0: {zero}"))),
            (None, Some("abc"), Err(format!("LOCERT_THREADS=abc: {nan}"))),
            (Some("1024"), None, Ok(Some(MAX_THREADS))),
            (Some("1025"), None, Err(format!("--threads 1025: {huge}"))),
            (
                Some("1000000"),
                Some("2"),
                Err(format!("--threads 1000000: {huge}")),
            ),
            (
                None,
                Some("1000000"),
                Err(format!("LOCERT_THREADS=1000000: {huge}")),
            ),
            (
                None,
                Some("18446744073709551615"),
                Err(format!("LOCERT_THREADS=18446744073709551615: {huge}")),
            ),
            // A bad environment value is an error even when the flag wins.
            (
                Some("2"),
                Some("abc"),
                Err(format!("LOCERT_THREADS=abc: {nan}")),
            ),
            (
                Some("2"),
                Some("1000000"),
                Err(format!("LOCERT_THREADS=1000000: {huge}")),
            ),
        ];
        for (flag, env, want) in table {
            assert_eq!(
                resolve_threads(flag, env),
                want,
                "flag {flag:?}, env {env:?}"
            );
        }
    }

    #[test]
    fn helpers_consume_what_they_match() {
        let mut r = run(&["a", "--n", "7", "--quick", "b", "--path"]);
        assert!(r.take_flag("--quick"));
        assert!(!r.take_flag("--quick"));
        assert_eq!(r.take_parsed::<u32>("--n"), Ok(Some(7)));
        assert_eq!(r.take_parsed::<u32>("--missing"), Ok(None));
        assert!(matches!(r.take_opt("--path"), Err(Failure::Usage(_))));
        assert_eq!(r.take_optional("--path", |_| true), Some(None));
        assert_eq!(r.positional(), Ok(vec!["a".to_string(), "b".to_string()]));

        let mut r = run(&["--m", "x.json", "--n", "oops"]);
        assert_eq!(
            r.take_optional("--m", |a| !a.starts_with("--")),
            Some(Some("x.json".to_string()))
        );
        assert!(matches!(
            r.take_parsed::<u32>("--n"),
            Err(Failure::Usage(_))
        ));

        let mut r = run(&["--bogus", "p"]);
        assert!(matches!(r.exactly::<1>("one path"), Err(Failure::Usage(_))));
        assert_eq!(
            run(&["p", "q"]).exactly::<2>("two"),
            Ok(["p".into(), "q".into()])
        );
        assert!(run(&["p"]).done().is_err());
    }

    #[test]
    fn artifacts_create_parent_directories() {
        let dir = std::env::temp_dir().join(format!("locert-run-{}", std::process::id()));
        let path = dir.join("a/b/out.txt");
        Run::write_artifact(&path, "x\n").expect("write");
        assert_eq!(Run::read(&path), Ok("x\n".to_string()));
        assert!(matches!(
            Run::write_artifact("/proc/nonexistent/out.txt", ""),
            Err(Failure::Io(msg)) if msg.contains("/proc/nonexistent/out.txt")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
