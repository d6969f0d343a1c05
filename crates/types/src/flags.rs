//! One flag table per command-line tool.
//!
//! A tool states its flags once, as rows `("--flag", "VALUE", default,
//! help)`; the usage text, the parse and the typed getters all come
//! from that table. An unknown flag, a missing value, an unparsable
//! value or a missing required flag is a [`Usage`] — the reason and the
//! usage line on stderr, exit 2 — and `--help` is the flag list on
//! stdout, exit 0. Integers are decimal or `0x…` everywhere.

use std::str::FromStr;

/// `(flag, value name, default, help)`. The value name is [`SWITCH`]
/// for a flag that takes none and ends in `...` for a repeatable one;
/// the default is `""` for none and [`REQUIRED`] when the flag must be
/// given.
pub type Row = (&'static str, &'static str, &'static str, &'static str);
pub const SWITCH: &str = "";
pub const REQUIRED: &str = "(required)";

/// A tool (or one subcommand of one): its name as typed, its flag
/// table, and what its positional arguments are called (`""`: it takes
/// none).
pub struct Tool<'a> {
    pub name: &'a str,
    pub flags: &'a [Row],
    pub positional: &'a str,
}

/// Why a command line stops before the tool runs: `--help` asked for
/// the text, or it says what is wrong with the command line.
#[derive(Debug)]
pub struct Usage {
    pub text: String,
    pub help: bool,
}

impl Usage {
    pub fn exit(&self) -> ! {
        if self.help {
            println!("{}", self.text);
            std::process::exit(0);
        }
        eprintln!("{}", self.text);
        std::process::exit(2);
    }
}

/// A parsed command line: the flags as given, in order (a switch with
/// an empty value), and the positional arguments.
pub struct Parsed<'a> {
    flags: &'a [Row],
    given: Vec<(&'static str, String)>,
    pub positionals: Vec<String>,
}

/// Decimal or `0x…`.
pub fn parse_int(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl<'a> Tool<'a> {
    /// A tool that takes no positional arguments.
    pub const fn new(name: &'a str, flags: &'a [Row]) -> Self {
        Tool {
            name,
            flags,
            positional: "",
        }
    }

    /// The one-line synopsis.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: {}", self.name);
        for &(flag, value, default, _) in self.flags {
            let body = format!("{flag} {value}");
            line += &match default {
                REQUIRED => format!(" {}", body.trim_end()),
                _ => format!(" [{}]", body.trim_end()),
            };
        }
        format!("{line} {}", self.positional).trim_end().into()
    }

    /// The synopsis and one line per flag.
    pub fn help(&self) -> String {
        let mut text = self.usage();
        for &(flag, value, default, help) in self.flags {
            let default = match default {
                "" | REQUIRED => default.to_string(),
                d => format!("(default {d})"),
            };
            let line = format!("\n  {:<24} {help} {default}", format!("{flag} {value}"));
            text += line.trim_end();
        }
        text
    }

    /// Parses `args` against the table and hands the result to
    /// `build`, whose `Err` is a bad value the getters reported.
    pub fn parse<T>(
        &self,
        args: impl IntoIterator<Item = String>,
        build: impl FnOnce(&Parsed) -> Result<T, String>,
    ) -> Result<T, Usage> {
        let bad = |reason: String| Usage {
            text: format!("{}: {reason}\n{}", self.name, self.usage()),
            help: false,
        };
        let (mut given, mut positionals) = (Vec::new(), Vec::new());
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match self.flags.iter().find(|row| row.0 == arg) {
                Some(&(flag, SWITCH, ..)) => given.push((flag, String::new())),
                Some(&(flag, ..)) => match args.next() {
                    Some(value) => given.push((flag, value)),
                    None => return Err(bad(format!("{flag} needs a value"))),
                },
                None if arg == "--help" || arg == "-h" => {
                    return Err(Usage {
                        text: self.help(),
                        help: true,
                    })
                }
                None if arg.starts_with("--") => return Err(bad(format!("unknown flag {arg}"))),
                None if self.positional.is_empty() => {
                    return Err(bad(format!("unexpected argument {arg}")))
                }
                None => positionals.push(arg),
            }
        }
        let parsed = Parsed {
            flags: self.flags,
            given,
            positionals,
        };
        for &(flag, _, default, _) in self.flags {
            if default == REQUIRED && parsed.get(flag).is_none() {
                return Err(bad(format!("{flag} is required")));
            }
        }
        build(&parsed).map_err(bad)
    }

    /// [`Tool::parse`] over the process's own arguments; a [`Usage`]
    /// ends the process.
    pub fn from_env<T>(&self, build: impl FnOnce(&Parsed) -> Result<T, String>) -> T {
        self.parse(std::env::args().skip(1), build)
            .unwrap_or_else(|u| u.exit())
    }
}

/// The index of the subcommand `first` names — the last word of a
/// tool's name — or every subcommand's synopsis.
pub fn subcommand(tools: &[&Tool], first: Option<&str>) -> Result<usize, Usage> {
    let named = |t: &&Tool| first.is_some() && t.name.rsplit(' ').next() == first;
    tools.iter().position(named).ok_or_else(|| Usage {
        text: tools
            .iter()
            .map(|t| t.usage())
            .collect::<Vec<_>>()
            .join("\n"),
        help: matches!(first, Some("--help" | "-h")),
    })
}

impl Parsed<'_> {
    /// The row of `flag`, which the tool's own table must have.
    fn row(&self, flag: &str) -> &Row {
        let row = self.flags.iter().find(|row| row.0 == flag);
        row.unwrap_or_else(|| panic!("{flag} is not in the flag table"))
    }

    /// Every value given for `flag`, in order.
    pub fn all(&self, flag: &str) -> Vec<&str> {
        let flag = self.row(flag).0;
        let given = self.given.iter().filter(|(f, _)| *f == flag);
        given.map(|(_, v)| v.as_str()).collect()
    }

    /// Whether a switch was set.
    pub fn on(&self, flag: &str) -> bool {
        !self.all(flag).is_empty()
    }

    /// The last value given, else the table's default, else `None`.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let default = self.row(flag).2;
        let default = (!default.is_empty() && default != REQUIRED).then_some(default);
        self.all(flag).last().copied().or(default)
    }

    fn typed<T>(&self, flag: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Option<T>, String> {
        let value = self.get(flag);
        value
            .map(|v| parse(v).ok_or_else(|| format!("bad value for {flag}: {v}")))
            .transpose()
    }

    /// An integer flag that may be absent.
    pub fn int_opt<T: TryFrom<u64>>(&self, flag: &str) -> Result<Option<T>, String> {
        self.typed(flag, |v| parse_int(v).and_then(|n| T::try_from(n).ok()))
    }

    /// An integer flag with a default (or required).
    pub fn int<T: TryFrom<u64>>(&self, flag: &str) -> Result<T, String> {
        self.int_opt(flag)?
            .ok_or_else(|| format!("{flag} is required"))
    }

    /// Any other `FromStr` flag that may be absent.
    pub fn val_opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.typed(flag, |v| v.parse().ok())
    }

    /// Any other `FromStr` flag with a default (or required).
    pub fn val<T: FromStr>(&self, flag: &str) -> Result<T, String> {
        self.val_opt(flag)?
            .ok_or_else(|| format!("{flag} is required"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[rustfmt::skip]
    const TOOL: Tool = Tool {
        name: "tool",
        positional: "FILE...",
        flags: &[
            ("--seed", "N", "1", "a seed"),
            ("--every-ms", "MS", "250", "a cadence"),
            ("--fast", SWITCH, "", "a switch"),
            ("--ctrl", "SITE=ADDR...", "", "a repeatable flag"),
            ("--theta", "THETA", "0.99", "a float"),
            ("--cap", "N", "", "an optional integer"),
        ],
    };

    fn parse<T>(
        args: &[&str],
        build: impl FnOnce(&Parsed) -> Result<T, String>,
    ) -> Result<T, Usage> {
        TOOL.parse(args.iter().map(|a| a.to_string()), build)
    }

    fn reason<T>(r: Result<T, Usage>) -> String {
        let Err(u) = r else {
            panic!("expected a usage error")
        };
        assert!(!u.help && u.text.ends_with(&TOOL.usage()), "{}", u.text);
        u.text.lines().next().unwrap().to_string()
    }

    #[test]
    fn hex_and_decimal_integers_are_the_same_value() {
        let seed = |s: &str| parse(&["--seed", s], |p| p.int::<u64>("--seed")).unwrap();
        assert_eq!(seed("0x50AC"), seed("20652"));
        assert_eq!(seed("0x50AC"), 0x50AC);
    }

    #[test]
    fn defaults_switches_and_optional_values() {
        let got = parse(&["--fast"], |p| {
            Ok((
                p.int::<u64>("--every-ms")?,
                p.on("--fast"),
                p.val::<f64>("--theta")?,
                p.int_opt::<usize>("--cap")?,
            ))
        });
        assert_eq!(got.unwrap(), (250, true, 0.99, None));
        let got = parse(&["--cap", "7"], |p| {
            Ok((p.on("--fast"), p.int_opt::<usize>("--cap")?))
        });
        assert_eq!(got.unwrap(), (false, Some(7)));
    }

    #[test]
    fn a_repeated_flag_keeps_every_value_and_positionals_follow_flags() {
        let args = [
            "--ctrl", "1=a", "--seed", "3", "--ctrl", "2=b", "x.jsonl", "y.jsonl",
        ];
        let got = parse(&args, |p| {
            let ctrl: Vec<String> = p.all("--ctrl").into_iter().map(String::from).collect();
            Ok((ctrl, p.positionals.clone(), p.int::<u32>("--seed")?))
        });
        let (ctrl, files, seed) = got.unwrap();
        assert_eq!(ctrl, ["1=a", "2=b"]);
        assert_eq!(files, ["x.jsonl", "y.jsonl"]);
        assert_eq!(seed, 3);
    }

    #[test]
    fn bad_command_lines_are_usage_errors_not_defaults() {
        let every = |p: &Parsed| p.int::<u64>("--every-ms");
        assert_eq!(
            reason(parse(&["--evry-ms", "5"], every)),
            "tool: unknown flag --evry-ms"
        );
        assert_eq!(
            reason(parse(&["--every-ms"], every)),
            "tool: --every-ms needs a value"
        );
        assert_eq!(
            reason(parse(&["--every-ms", "abc"], every)),
            "tool: bad value for --every-ms: abc"
        );
        // Too wide for the type asked for, and a value where a switch goes.
        let narrow = |p: &Parsed| p.int::<u8>("--seed");
        assert_eq!(
            reason(parse(&["--seed", "0x100"], narrow)),
            "tool: bad value for --seed: 0x100"
        );
        let none = Tool {
            positional: "",
            ..TOOL
        };
        let r = none.parse(["--fast".to_string(), "yes".to_string()], |_| Ok(()));
        assert_eq!(
            r.unwrap_err().text.lines().next(),
            Some("tool: unexpected argument yes")
        );
    }

    #[test]
    fn a_required_flag_must_be_given() {
        #[rustfmt::skip]
        let tool = Tool {
            name: "diff",
            positional: "",
            flags: &[("--baseline", "FILE", REQUIRED, "the baseline")],
        };
        assert_eq!(tool.usage(), "usage: diff --baseline FILE");
        let err = tool.parse([], |_| Ok(())).unwrap_err();
        assert_eq!(
            err.text,
            "diff: --baseline is required\nusage: diff --baseline FILE"
        );
        let got = tool.parse(["--baseline".into(), "b.json".into()], |p| {
            p.val::<String>("--baseline")
        });
        assert_eq!(got.unwrap(), "b.json");
    }

    #[test]
    fn help_is_the_flag_list_and_not_an_error() {
        let u = parse(&["--seed", "1", "--help"], |_| Ok(())).unwrap_err();
        assert!(u.help);
        let lines: Vec<&str> = u.text.lines().collect();
        assert_eq!(
            lines[0],
            "usage: tool [--seed N] [--every-ms MS] [--fast] [--ctrl SITE=ADDR...] \
             [--theta THETA] [--cap N] FILE..."
        );
        assert_eq!(lines[1], "  --seed N                 a seed (default 1)");
        assert_eq!(lines[3], "  --fast                   a switch");
        assert_eq!(lines.len(), 7);
    }

    #[test]
    fn a_subcommand_table_picks_by_last_word_or_lists_every_synopsis() {
        let scrape = Tool {
            name: "scope scrape",
            ..TOOL
        };
        let merge = Tool {
            name: "scope merge",
            flags: &[],
            positional: "TRACE...",
        };
        let tools = [&scrape, &merge];
        assert_eq!(subcommand(&tools, Some("merge")).unwrap(), 1);
        for (first, help) in [
            (None, false),
            (Some("smoke"), false),
            (Some("--help"), true),
        ] {
            let u = subcommand(&tools, first).unwrap_err();
            assert_eq!(u.help, help);
            assert_eq!(u.text, format!("{}\n{}", scrape.usage(), merge.usage()));
        }
    }
}
