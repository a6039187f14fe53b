//! Command-line handling shared by the harness binaries: `--help` prints
//! the usage to stdout and exits 0; a bad command line prints a one-line
//! reason plus the usage to stderr and exits 2.

use std::fmt::Display;
use std::str::FromStr;

/// A binary's name and usage text.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Binary name, prefixed to every error line.
    pub bin: &'static str,
    /// The usage text (`usage: ...` plus one line per flag).
    pub text: &'static str,
}

impl Usage {
    /// `--help`: prints the usage to stdout and exits 0.
    pub fn help(&self) -> ! {
        println!("{}", self.text);
        std::process::exit(0)
    }

    /// A bad command line: prints `reason` and the usage to stderr and
    /// exits 2.
    pub fn fail(&self, reason: impl Display) -> ! {
        eprintln!("{}: {reason}", self.bin);
        eprintln!("{}", self.text);
        std::process::exit(2)
    }

    /// The value following `flag`, or a usage error when it is missing.
    pub fn value(&self, args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next()
            .unwrap_or_else(|| self.fail(format!("{flag} needs a value")))
    }

    /// The value following `flag` parsed as `T`, or a usage error naming
    /// what `flag` expects (`what`).
    pub fn parse<T: FromStr>(
        &self,
        args: &mut impl Iterator<Item = String>,
        flag: &str,
        what: &str,
    ) -> T {
        let v = self.value(args, flag);
        v.parse()
            .unwrap_or_else(|_| self.fail(format!("{flag} needs {what}, got {v:?}")))
    }
}
