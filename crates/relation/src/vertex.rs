//! The packed form of a vertex, and the one place that fixes its bit order.
//!
//! A vertex of `width` components packs into the low `width` bits of a
//! `u32`, component 0 in the most significant of them. Numeric order of
//! packed vertices is then the lexicographic order of their components,
//! and a pair word `x << m | y` lists its bits in the variable order of
//! every [`RelationSpace`] (inputs, then outputs), which is what lets
//! [`BooleanRelation::from_packed`] split sorted words as they are. A bit
//! string such as `"10"` spells the components in the same order,
//! component 0 first.
//!
//! [`RelationSpace::enumerate_inputs`] counts the other way: component 0
//! is the least significant bit of a vertex's index. [`from_index`]
//! converts between the two.
//!
//! Every function here takes widths of at most 32.
//!
//! ```
//! use brel_relation::vertex;
//!
//! let word = vertex::pack(&[true, false, false]);
//! assert_eq!(word, 0b100);
//! assert_eq!(vertex::unpack(word, 3), [true, false, false]);
//! assert_eq!(vertex::parse("100"), Ok(word));
//! let mut text = String::new();
//! vertex::write(&mut text, word, 3);
//! assert_eq!(text, "100");
//! // Enumeration index 1 is the vertex whose component 0 is set.
//! assert_eq!(vertex::from_index(1, 3), word);
//! ```
//!
//! [`RelationSpace`]: crate::RelationSpace
//! [`RelationSpace::enumerate_inputs`]: crate::RelationSpace::enumerate_inputs
//! [`BooleanRelation::from_packed`]: crate::BooleanRelation::from_packed

/// Packs a vertex, component 0 in the most significant bit.
pub fn pack(bits: &[bool]) -> u32 {
    bits.iter().fold(0, |acc, &bit| acc << 1 | u32::from(bit))
}

/// The bit that holds component `i` of a packed `width`-component vertex.
pub fn component(i: usize, width: usize) -> u32 {
    1 << (width - 1 - i)
}

/// The `width` components of a packed vertex: the inverse of [`pack`].
pub fn unpack(word: u32, width: usize) -> Vec<bool> {
    (0..width)
        .map(|i| word & component(i, width) != 0)
        .collect()
}

/// Converts a vertex's index in enumeration order (component 0 in the
/// least significant bit) into its packed form. The conversion reverses
/// the low `width` bits, so it is its own inverse.
pub fn from_index(index: u32, width: usize) -> u32 {
    match width {
        0 => 0,
        _ => index.reverse_bits() >> (32 - width),
    }
}

/// Reads a bit string into a packed vertex, its first character in the
/// most significant bit. The caller checks the string's length against
/// the vertex width.
///
/// # Errors
///
/// Returns the first character that is neither `0` nor `1`.
pub fn parse(text: &str) -> Result<u32, char> {
    text.chars().try_fold(0, |acc, c| match c {
        '0' => Ok(acc << 1),
        '1' => Ok(acc << 1 | 1),
        bad => Err(bad),
    })
}

/// Appends the low `width` bits of `word` as a bit string: the inverse of
/// [`parse`].
pub fn write(text: &mut String, word: u32, width: usize) {
    for i in (0..width).rev() {
        text.push(if word >> i & 1 == 1 { '1' } else { '0' });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_form_agrees_on_every_small_vertex() {
        for width in 0..=4 {
            for index in 0..1u32 << width {
                let bits: Vec<bool> = (0..width).map(|i| index >> i & 1 == 1).collect();
                let word = from_index(index, width);
                assert_eq!(pack(&bits), word, "width {width}, index {index}");
                for (i, &bit) in bits.iter().enumerate() {
                    assert_eq!(word & component(i, width) != 0, bit);
                }
                assert_eq!(unpack(word, width), bits);
                assert_eq!(from_index(word, width), index);
                let mut text = String::new();
                write(&mut text, word, width);
                let spelled: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
                assert_eq!(text, spelled);
                assert_eq!(parse(&text), Ok(word));
            }
        }
    }

    #[test]
    fn full_width_vertices_and_bad_characters() {
        assert_eq!(from_index(1, 32), 1 << 31);
        assert_eq!(pack(&[true; 32]), u32::MAX);
        assert_eq!(parse("0z1"), Err('z'));
        assert_eq!(parse(""), Ok(0));
    }
}
