//! A tiny, strict `--flag value` argument parser: each subcommand names
//! the flags it accepts, and anything else is an error, so a typo or a
//! retired flag fails loudly instead of silently doing nothing.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` / `--switch`
/// options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// The flags one subcommand accepts, each list space-separated.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlagSet {
    /// Flags that take a value (`--seed 6`).
    pub options: &'static str,
    /// Bare switches (`--anechoic`).
    pub switches: &'static str,
}

fn listed(list: &str, key: &str) -> bool {
    list.split_whitespace().any(|flag| flag == key)
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// An option that needs a value didn't get one.
    MissingValue(String),
    /// A required option is absent.
    Required(String),
    /// A value failed to parse.
    BadValue(String, String),
    /// A flag the subcommand does not accept.
    UnknownFlag {
        /// The subcommand.
        command: String,
        /// The flag, without its `--`.
        flag: String,
    },
    /// A flag given more than once.
    DuplicateFlag(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::Required(k) => write!(f, "required option --{k} missing"),
            ArgError::BadValue(k, v) => write!(f, "bad value {v:?} for --{k}"),
            ArgError::UnknownFlag { command, flag } => {
                write!(f, "unknown option --{flag} for {command:?}")
            }
            ArgError::DuplicateFlag(k) => write!(f, "option --{k} given more than once"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name): the subcommand,
    /// then only the flags `flags(subcommand)` accepts, each at most once.
    pub fn parse(raw: &[String], flags: impl Fn(&str) -> FlagSet) -> Result<Args, ArgError> {
        let mut it = raw.iter();
        let command = it.next().ok_or(ArgError::MissingCommand)?.clone();
        let accepted = flags(&command);
        let mut options = BTreeMap::new();
        let mut switches = Vec::new();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError::BadValue("<positional>".into(), tok.clone()))?;
            if options.contains_key(key) || switches.iter().any(|s| s == key) {
                return Err(ArgError::DuplicateFlag(key.to_string()));
            }
            if listed(accepted.switches, key) {
                switches.push(key.to_string());
            } else if listed(accepted.options, key) {
                let val = it
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
                options.insert(key.to_string(), val.clone());
            } else {
                return Err(ArgError::UnknownFlag {
                    command,
                    flag: key.to_string(),
                });
            }
        }
        Ok(Args {
            command,
            options,
            switches,
        })
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::Required(key.into()))
    }

    /// A numeric option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::BadValue(key.into(), v.into())),
        }
    }

    /// An integer option with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::BadValue(key.into(), v.into())),
        }
    }

    /// Whether a value-less switch was present.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: FlagSet = FlagSet {
        options: "seed grid table",
        switches: "anechoic",
    };

    fn parse(s: &str) -> Result<Args, ArgError> {
        let raw: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&raw, |_| FLAGS)
    }

    #[test]
    fn parses_command_options_switches() {
        let a = parse("personalize --seed 42 --anechoic --grid 5").unwrap();
        assert_eq!(a.command, "personalize");
        assert_eq!(a.get_u64("seed", 0).unwrap(), 42);
        assert_eq!(a.get_f64("grid", 1.0).unwrap(), 5.0);
        assert!(a.switch("anechoic"));
        assert!(!a.switch("room"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("info").unwrap();
        assert_eq!(a.get_f64("theta", 30.0).unwrap(), 30.0);
        assert!(a.get("table").is_none());
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn missing_value_rejected() {
        assert_eq!(
            parse("x --seed").unwrap_err(),
            ArgError::MissingValue("seed".into())
        );
    }

    #[test]
    fn bad_number_rejected() {
        let a = parse("x --seed banana").unwrap();
        assert!(matches!(
            a.get_u64("seed", 0),
            Err(ArgError::BadValue(_, _))
        ));
    }

    #[test]
    fn required_option() {
        let a = parse("x --table t.hrtf").unwrap();
        assert_eq!(a.require("table").unwrap(), "t.hrtf");
        assert!(a.require("missing").is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        assert_eq!(
            parse("personalize --thredas 4").unwrap_err(),
            ArgError::UnknownFlag {
                command: "personalize".into(),
                flag: "thredas".into()
            }
        );
        // An unknown flag is never taken for a switch either.
        assert!(matches!(
            parse("personalize --verbose").unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
    }

    #[test]
    fn duplicate_flags_rejected() {
        assert_eq!(
            parse("x --seed 1 --seed 2").unwrap_err(),
            ArgError::DuplicateFlag("seed".into())
        );
        assert_eq!(
            parse("x --anechoic --anechoic").unwrap_err(),
            ArgError::DuplicateFlag("anechoic".into())
        );
    }
}
