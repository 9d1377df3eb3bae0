//! `paper_harness` plumbing: one flag parser in, one verdict path out.
//!
//! Every scenario parses `--name value` pairs and bare switches with
//! [`Flags`] (exit status 2 on an unknown flag, a missing value or a value
//! that does not parse) and ends in [`finish`], which writes its
//! `BENCH_<name>.json` and prints the `<name>: ok` line the CI smokes grep.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::str::FromStr;

use crate::json::Json;

/// One command's parsed flags.
#[derive(Debug)]
pub struct Flags {
    cmd: &'static str,
    given: BTreeMap<String, Option<String>>,
}

impl Flags {
    /// Parses `args` for `cmd`, whose flags in `valued` take a value and
    /// whose flags in `switches` take none. Exits 2 on an unknown flag or a
    /// missing value.
    pub fn parse(cmd: &'static str, args: &[String], valued: &[&str], switches: &[&str]) -> Flags {
        let mut given = BTreeMap::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let value = if switches.contains(&flag.as_str()) {
                None
            } else if valued.contains(&flag.as_str()) {
                let Some(v) = rest.next() else {
                    usage(cmd, &format!("{flag} needs a value"))
                };
                Some(v.clone())
            } else {
                usage(cmd, &format!("unknown flag {flag}"))
            };
            given.insert(flag.clone(), value);
        }
        Flags { cmd, given }
    }

    /// Whether the bare switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The raw value given for `name`.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.given.get(name)?.as_deref()
    }

    /// The value of `name` as a number, or `default` when not given.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> T {
        self.text(name).map_or(default, |raw| self.value(name, raw))
    }

    /// `raw`, given for `name`, as a number; exits 2 when it is not one.
    pub fn value<T: FromStr>(&self, name: &str, raw: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| usage(self.cmd, &format!("{name} must be a number, got {raw}")))
    }
}

fn usage(cmd: &str, msg: &str) -> ! {
    eprintln!("{cmd}: {msg}");
    std::process::exit(2)
}

/// A scenario's outcome: its verdict and the report it writes.
pub trait Report: Debug {
    /// The verdict line's prefix and the `BENCH_<NAME>.json` file stem.
    const NAME: &'static str;

    /// Whether every acceptance check held.
    fn ok(&self) -> bool;

    /// The report as one JSON object.
    fn json(&self) -> Json;
}

/// Writes `BENCH_<NAME>.json` into the working directory and prints the
/// `<NAME>: ok` verdict line; on a failed verdict prints the whole report
/// and exits 1.
pub fn finish<R: Report>(report: &R) {
    let file = format!("BENCH_{}.json", R::NAME);
    if let Err(e) = std::fs::write(&file, format!("{}\n", report.json())) {
        eprintln!("{}: could not write {file}: {e}", R::NAME);
    }
    if report.ok() {
        println!("{}: ok", R::NAME);
    } else {
        println!("{}: FAILED ({report:?})", R::NAME);
        std::process::exit(1);
    }
}
