//! Tabular text representation of relations, mirroring the notation used in
//! the paper's examples (`input : {output, output, …}`).

use crate::error::RelationError;
use crate::relation::{check_word_width, BooleanRelation};
use crate::space::RelationSpace;
use crate::vertex;

/// Reads one vertex of a table line into its packed form.
fn parse_vertex(text: &str, expected: usize, what: &str) -> Result<u32, RelationError> {
    let text = text.trim();
    if text.len() != expected {
        return Err(RelationError::Parse(format!(
            "{what} vertex `{text}` must have {expected} bits"
        )));
    }
    vertex::parse(text).map_err(|bad| {
        RelationError::Parse(format!("invalid bit `{bad}` in {what} vertex `{text}`"))
    })
}

impl BooleanRelation {
    /// Parses a relation from its tabular description. Each non-empty line
    /// has the form `input : {output, output, …}`; the output set may also
    /// be written without braces. Lines starting with `#` are comments.
    /// Each line is read straight into packed pair words
    /// ([`BooleanRelation::from_packed`]).
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
    /// vertex with the wrong number of bits, and
    /// [`RelationError::TooLarge`] if the space has more than 32 variables.
    pub fn from_table(space: &RelationSpace, text: &str) -> Result<Self, RelationError> {
        let (num_inputs, num_outputs) = (space.num_inputs(), space.num_outputs());
        check_word_width(num_inputs + num_outputs)?;
        let mut words = Vec::new();
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (lhs, rhs) = line
                .split_once(':')
                .ok_or_else(|| RelationError::Parse(format!("line `{line}` is missing `:`")))?;
            // Shifted in 64 bits: a space of 0 inputs may have 32 outputs.
            let x = u64::from(parse_vertex(lhs, num_inputs, "input")?) << num_outputs;
            let rhs = rhs.trim().trim_start_matches('{').trim_end_matches('}');
            if rhs.trim().is_empty() {
                // An explicitly empty image: contributes no pairs (and makes
                // the relation not well defined unless covered elsewhere).
                continue;
            }
            for out_text in rhs.split(',') {
                let y = parse_vertex(out_text, num_outputs, "output")?;
                words.push((x | u64::from(y)) as u32);
            }
        }
        BooleanRelation::from_packed(space, &words)
    }

    /// Renders the relation in the same tabular syntax accepted by
    /// [`BooleanRelation::from_table`], read off χ's paths
    /// ([`BooleanRelation::to_packed`]). Every input vertex gets a line,
    /// in [`RelationSpace::enumerate_inputs`] order; an input on which the
    /// relation is not well defined reads `{}`. Each image is listed in the
    /// same enumeration order over the outputs.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::TooLarge`] if either width exceeds 16.
    pub fn to_table(&self) -> Result<String, RelationError> {
        let (n, m) = (self.space().num_inputs(), self.space().num_outputs());
        if n > 16 || m > 16 {
            return Err(RelationError::TooLarge {
                vars: n.max(m),
                limit: 16,
            });
        }
        // Re-key every pair by the enumeration indices of its vertices, so
        // sorted keys list the lines, and each image, in table order.
        let y_mask = (1u32 << m) - 1;
        let mut keys: Vec<u32> = self
            .to_packed()?
            .into_iter()
            .map(|w| vertex::from_index(w >> m, n) << m | vertex::from_index(w & y_mask, m))
            .collect();
        keys.sort_unstable();
        let mut keys = keys.into_iter().peekable();
        let mut out = String::new();
        for x in 0..1u32 << n {
            vertex::write(&mut out, vertex::from_index(x, n), n);
            out.push_str(" : {");
            let mut separator = "";
            while let Some(key) = keys.next_if(|key| key >> m == x) {
                out.push_str(separator);
                vertex::write(&mut out, vertex::from_index(key & y_mask, m), m);
                separator = ", ";
            }
            out.push_str("}\n");
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
