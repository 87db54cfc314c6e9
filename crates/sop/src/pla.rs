//! A reader/writer for the Berkeley PLA text format (the `.type fr` flavour
//! used by ESPRESSO), providing the textual interchange of two-level covers
//! used in the benchmark harness.

use crate::cover::Cover;
use crate::cube::{Cube, CubeValue};
use crate::multi::MultiCover;
use crate::SopError;

/// Largest `.i` or `.o` count [`PlaFile::parse`] accepts. The reader
/// allocates per-input names and per-output covers from the header alone,
/// so a header above this bound is rejected before anything is allocated.
pub const MAX_PLA_WIDTH: usize = 1 << 16;

/// Contents of a PLA description: the onset and don't-care set covers of a
/// multiple-output function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaFile {
    /// Number of input variables.
    pub num_inputs: usize,
    /// Number of outputs.
    pub num_outputs: usize,
    /// Input variable names (defaults to `x{i}`).
    pub input_names: Vec<String>,
    /// Output names (defaults to `y{i}`).
    pub output_names: Vec<String>,
    /// Onset cover per output.
    pub on: MultiCover,
    /// Don't-care cover per output.
    pub dc: MultiCover,
}

impl PlaFile {
    /// Creates an empty PLA of the given dimensions.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        PlaFile {
            num_inputs,
            num_outputs,
            input_names: (0..num_inputs).map(|i| format!("x{i}")).collect(),
            output_names: (0..num_outputs).map(|i| format!("y{i}")).collect(),
            on: MultiCover::new(num_inputs, num_outputs),
            dc: MultiCover::new(num_inputs, num_outputs),
        }
    }

    /// Parses a PLA description.
    ///
    /// # Errors
    ///
    /// Returns [`SopError::Parse`] on malformed input (unknown directives
    /// are ignored; missing `.i`/`.o` headers, headers above
    /// [`MAX_PLA_WIDTH`], rows of the wrong width or rows with invalid
    /// characters are errors).
    pub fn parse(text: &str) -> Result<Self, SopError> {
        let mut num_inputs: Option<usize> = None;
        let mut num_outputs: Option<usize> = None;
        let mut input_names: Option<Vec<String>> = None;
        let mut output_names: Option<Vec<String>> = None;
        let mut rows: Vec<(Cube, Vec<char>)> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('.') {
                let mut parts = rest.split_whitespace();
                let directive = parts.next().unwrap_or("");
                match directive {
                    "i" => {
                        num_inputs = Some(parse_width(parts.next(), lineno)?);
                    }
                    "o" => {
                        num_outputs = Some(parse_width(parts.next(), lineno)?);
                    }
                    "ilb" => {
                        input_names = Some(parts.map(str::to_string).collect());
                    }
                    "ob" => {
                        output_names = Some(parts.map(str::to_string).collect());
                    }
                    "p" | "type" | "e" | "end" => {}
                    _ => {}
                }
                continue;
            }
            // A product-term row: input part followed by output part.
            let mut parts = line.split_whitespace();
            let input_part = parts.next().ok_or_else(|| {
                SopError::Parse(format!("line {}: missing input part", lineno + 1))
            })?;
            let output_part: String = parts.collect::<Vec<_>>().join("");
            let cube = Cube::parse(input_part)
                .map_err(|e| SopError::Parse(format!("line {}: {e}", lineno + 1)))?;
            rows.push((cube, output_part.chars().collect()));
        }

        let num_inputs =
            num_inputs.ok_or_else(|| SopError::Parse("missing .i directive".to_string()))?;
        let num_outputs =
            num_outputs.ok_or_else(|| SopError::Parse("missing .o directive".to_string()))?;

        let mut on_outputs = vec![Cover::empty(num_inputs); num_outputs];
        let mut dc_outputs = vec![Cover::empty(num_inputs); num_outputs];
        for (cube, out_chars) in rows {
            if cube.width() != num_inputs {
                return Err(SopError::Parse(format!(
                    "row `{cube}` has {} inputs, expected {num_inputs}",
                    cube.width()
                )));
            }
            if out_chars.len() != num_outputs {
                return Err(SopError::Parse(format!(
                    "row `{cube}` has {} outputs, expected {num_outputs}",
                    out_chars.len()
                )));
            }
            for (o, ch) in out_chars.iter().enumerate() {
                match ch {
                    '1' | '4' => on_outputs[o].push(cube.clone()).expect("width checked"),
                    '-' | '2' => dc_outputs[o].push(cube.clone()).expect("width checked"),
                    '0' | '~' | '3' => {}
                    other => {
                        return Err(SopError::Parse(format!(
                            "invalid output character `{other}` in row `{cube}`"
                        )))
                    }
                }
            }
        }

        Ok(PlaFile {
            num_inputs,
            num_outputs,
            input_names: input_names
                .unwrap_or_else(|| (0..num_inputs).map(|i| format!("x{i}")).collect()),
            output_names: output_names
                .unwrap_or_else(|| (0..num_outputs).map(|i| format!("y{i}")).collect()),
            on: MultiCover::from_outputs(on_outputs)?,
            dc: MultiCover::from_outputs(dc_outputs)?,
        })
    }

    /// Renders the PLA back to text (onset rows only, plus `-` rows for the
    /// don't-care set, as in ESPRESSO's `fd` type).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(".i {}\n", self.num_inputs));
        out.push_str(&format!(".o {}\n", self.num_outputs));
        out.push_str(&format!(".ilb {}\n", self.input_names.join(" ")));
        out.push_str(&format!(".ob {}\n", self.output_names.join(" ")));
        // Collect rows: map input cube -> output pattern.
        let mut rows: Vec<(Cube, Vec<char>)> = Vec::new();
        let add = |cube: &Cube, output: usize, ch: char, rows: &mut Vec<(Cube, Vec<char>)>| {
            if let Some(row) = rows.iter_mut().find(|(c, _)| c == cube) {
                row.1[output] = ch;
            } else {
                let mut pattern = vec!['0'; self.num_outputs];
                pattern[output] = ch;
                rows.push((cube.clone(), pattern));
            }
        };
        for (o, cover) in self.on.outputs().iter().enumerate() {
            for cube in cover.cubes() {
                add(cube, o, '1', &mut rows);
            }
        }
        for (o, cover) in self.dc.outputs().iter().enumerate() {
            for cube in cover.cubes() {
                add(cube, o, '-', &mut rows);
            }
        }
        out.push_str(&format!(".p {}\n", rows.len()));
        for (cube, pattern) in rows {
            out.push_str(&format!(
                "{} {}\n",
                cube,
                pattern.into_iter().collect::<String>()
            ));
        }
        out.push_str(".e\n");
        out
    }

    /// Convenience constructor: onset covers only, no don't cares.
    ///
    /// # Errors
    ///
    /// Returns [`SopError::WidthMismatch`] if the covers disagree on width.
    pub fn from_on_covers(covers: Vec<Cover>) -> Result<Self, SopError> {
        let on = MultiCover::from_outputs(covers)?;
        let num_inputs = on.num_inputs();
        let num_outputs = on.num_outputs();
        Ok(PlaFile {
            num_inputs,
            num_outputs,
            input_names: (0..num_inputs).map(|i| format!("x{i}")).collect(),
            output_names: (0..num_outputs).map(|i| format!("y{i}")).collect(),
            on,
            dc: MultiCover::new(num_inputs, num_outputs),
        })
    }
}

/// Parses an `.i`/`.o` count, rejecting one above [`MAX_PLA_WIDTH`].
fn parse_width(tok: Option<&str>, lineno: usize) -> Result<usize, SopError> {
    let n: usize = tok
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| SopError::Parse(format!("line {}: expected a number", lineno + 1)))?;
    if n > MAX_PLA_WIDTH {
        return Err(SopError::Parse(format!(
            "line {}: {n} exceeds the maximum width {MAX_PLA_WIDTH}",
            lineno + 1
        )));
    }
    Ok(n)
}

/// Checks whether a cube value is a don't care (helper shared with tests).
pub fn is_dont_care(v: CubeValue) -> bool {
    matches!(v, CubeValue::DontCare)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_headers_are_parse_errors() {
        for text in [".i 1\n.o 4000000000\n", ".i 4000000000\n.o 1\n"] {
            assert!(matches!(PlaFile::parse(text), Err(SopError::Parse(_))));
        }
        let at_bound = format!(".i 1\n.o {MAX_PLA_WIDTH}\n");
        assert_eq!(
            PlaFile::parse(&at_bound).unwrap().num_outputs,
            MAX_PLA_WIDTH
        );
    }

    const SAMPLE: &str = "\
# two-output sample
.i 3
.o 2
.ilb a b c
.ob f g
.p 4
1-0 10
011 11
000 0-
111 01
.e
";

    #[test]
    fn parse_sample() {
        let pla = PlaFile::parse(SAMPLE).unwrap();
        assert_eq!(pla.num_inputs, 3);
        assert_eq!(pla.num_outputs, 2);
        assert_eq!(pla.input_names, vec!["a", "b", "c"]);
        assert_eq!(pla.on.output(0).num_cubes(), 2);
        assert_eq!(pla.on.output(1).num_cubes(), 2);
        assert_eq!(pla.dc.output(1).num_cubes(), 1);
        assert!(pla.on.output(0).eval(&[true, false, false]));
        assert!(!pla.on.output(0).eval(&[true, true, true]));
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let pla = PlaFile::parse(SAMPLE).unwrap();
        let text = pla.to_text();
        let reparsed = PlaFile::parse(&text).unwrap();
        assert_eq!(pla.on, reparsed.on);
        assert_eq!(pla.dc, reparsed.dc);
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(PlaFile::parse("1-0 1\n").is_err());
    }

    #[test]
    fn bad_row_width_is_an_error() {
        let text = ".i 3\n.o 1\n10 1\n";
        assert!(PlaFile::parse(text).is_err());
        let text = ".i 2\n.o 2\n10 1\n";
        assert!(PlaFile::parse(text).is_err());
    }

    #[test]
    fn bad_output_character_is_an_error() {
        let text = ".i 2\n.o 1\n10 z\n";
        assert!(PlaFile::parse(text).is_err());
    }

    #[test]
    fn from_on_covers_builds_defaults() {
        let c = Cover::from_cubes(2, vec![Cube::parse("1-").unwrap()]).unwrap();
        let pla = PlaFile::from_on_covers(vec![c]).unwrap();
        assert_eq!(pla.num_inputs, 2);
        assert_eq!(pla.num_outputs, 1);
        assert_eq!(pla.output_names, vec!["y0"]);
        assert!(pla.dc.output(0).is_empty());
    }
}
