//! Command-line handling shared by the harness binaries: `--help` prints
//! the usage to stdout and exits 0; a bad command line prints a one-line
//! reason plus the usage to stderr and exits 2; an output file that still
//! cannot be written prints one line and exits 1.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

/// A binary's name and usage text.
#[derive(Debug, Clone, Copy)]
pub struct Usage<'a> {
    /// Binary name, prefixed to every error line.
    pub bin: &'a str,
    /// The usage text (`usage: ...` plus one line per flag).
    pub text: &'a str,
}

impl Usage<'_> {
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

    /// The output path following `flag`, or a usage error when its
    /// directory does not exist, so a run never computes a result it
    /// cannot write.
    pub fn out_path(&self, args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        let path = self.value(args, flag);
        let dir = Path::new(&path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty());
        if dir.is_some_and(|d| !d.is_dir()) {
            self.fail(format!("{flag}: the directory of {path:?} does not exist"));
        }
        path
    }

    /// Writes `contents` to `path`; a failed write prints one line and
    /// exits 1.
    pub fn write(&self, path: &str, contents: &str) {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("{}: cannot write {path}: {e}", self.bin);
            std::process::exit(1);
        }
    }
}
