//! Tabular text representation of relations, mirroring the notation used in
//! the paper's examples (`input : {output, output, …}`).

use crate::error::RelationError;
use crate::relation::BooleanRelation;
use crate::space::RelationSpace;

fn parse_vertex(text: &str, expected: usize, what: &str) -> Result<Vec<bool>, RelationError> {
    let text = text.trim();
    if text.len() != expected {
        return Err(RelationError::Parse(format!(
            "{what} vertex `{text}` must have {expected} bits"
        )));
    }
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(RelationError::Parse(format!(
                "invalid bit `{other}` in {what} vertex `{text}`"
            ))),
        })
        .collect()
}

impl BooleanRelation {
    /// Parses a relation from its tabular description. Each non-empty line
    /// has the form `input : {output, output, …}`; the output set may also
    /// be written without braces. Lines starting with `#` are comments.
    ///
    /// ```
    /// use brel_relation::{BooleanRelation, RelationSpace};
    ///
    /// let space = RelationSpace::new(2, 2);
    /// let r = BooleanRelation::from_table(
    ///     &space,
    ///     "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}",
    /// ).unwrap();
    /// assert_eq!(r.num_pairs(), 6);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::Parse`] on malformed lines, including a
    /// vertex with the wrong number of bits.
    pub fn from_table(space: &RelationSpace, text: &str) -> Result<Self, RelationError> {
        let mut pairs: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (lhs, rhs) = line
                .split_once(':')
                .ok_or_else(|| RelationError::Parse(format!("line `{line}` is missing `:`")))?;
            let input = parse_vertex(lhs, space.num_inputs(), "input")?;
            let rhs = rhs.trim().trim_start_matches('{').trim_end_matches('}');
            if rhs.trim().is_empty() {
                // An explicitly empty image: contributes no pairs (and makes
                // the relation not well defined unless covered elsewhere).
                continue;
            }
            for out_text in rhs.split(',') {
                let output = parse_vertex(out_text, space.num_outputs(), "output")?;
                pairs.push((input.clone(), output));
            }
        }
        BooleanRelation::from_pairs(space, &pairs)
    }

    /// Renders the relation in the same tabular syntax accepted by
    /// [`BooleanRelation::from_table`].
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::TooLarge`] if the space is too large to
    /// enumerate.
    pub fn to_table(&self) -> Result<String, RelationError> {
        let rows = self.to_rows()?;
        let mut out = String::new();
        for (input, outputs) in rows {
            let x: String = input.iter().map(|&b| if b { '1' } else { '0' }).collect();
            let ys: Vec<String> = outputs
                .iter()
                .map(|o| o.iter().map(|&b| if b { '1' } else { '0' }).collect())
                .collect();
            out.push_str(&format!("{x} : {{{}}}\n", ys.join(", ")));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fig1_table() {
        let space = RelationSpace::new(2, 2);
        let r = BooleanRelation::from_table(
            &space,
            "# Fig. 1a\n00 : {00}\n01 : {00}\n10 : {00, 11}\n11 : {10, 11}\n",
        )
        .unwrap();
        assert!(r.is_well_defined());
        assert_eq!(r.num_pairs(), 6);
        assert_eq!(
            r.image(&[true, false]).unwrap(),
            vec![vec![false, false], vec![true, true]]
        );
    }

    #[test]
    fn round_trip() {
        let space = RelationSpace::new(2, 2);
        let text = "00 : {00}\n01 : {00}\n10 : {00, 11}\n11 : {10, 11}\n";
        let r = BooleanRelation::from_table(&space, text).unwrap();
        let rendered = r.to_table().unwrap();
        let r2 = BooleanRelation::from_table(&space, &rendered).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn parse_errors() {
        let space = RelationSpace::new(2, 2);
        for text in ["00 {00}", "0 : {00}", "00 : {0z}", "00 : {000}"] {
            assert!(
                matches!(
                    BooleanRelation::from_table(&space, text),
                    Err(RelationError::Parse(_))
                ),
                "`{text}` must be a parse error"
            );
        }
    }

    #[test]
    fn empty_image_lines_are_allowed_but_not_well_defined() {
        let space = RelationSpace::new(1, 1);
        let r = BooleanRelation::from_table(&space, "0 : {}\n1 : {1}").unwrap();
        assert!(!r.is_well_defined());
        assert_eq!(r.num_pairs(), 1);
    }
}
