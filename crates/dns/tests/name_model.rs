//! The one-buffer [`DnsName`] against the representation it replaced: a
//! vector of label vectors, with the derived comparisons and the
//! label-at-a-time algorithms. Random schedules of parse / child / parent /
//! decode must leave the two indistinguishable through every observer.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use mirage_dns::name::{MAX_LABEL_LEN, MAX_NAME_LEN};
use mirage_dns::{DnsName, NameError};
use mirage_testkit::prop::collection;

/// The naive name: labels most-specific first, lower-cased.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
struct Model(Vec<Vec<u8>>);

impl Model {
    fn wire_len(&self) -> usize {
        self.0.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    fn parse(s: &str) -> Result<Model, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Model::default());
        }
        let mut labels = Vec::new();
        for part in s.split('.') {
            if part.is_empty() {
                return Err(NameError::Malformed);
            }
            if part.len() > MAX_LABEL_LEN {
                return Err(NameError::TooLong);
            }
            labels.push(part.to_ascii_lowercase().into_bytes());
        }
        let name = Model(labels);
        if name.wire_len() > MAX_NAME_LEN {
            return Err(NameError::TooLong);
        }
        Ok(name)
    }

    fn child(&self, label: &str) -> Result<Model, NameError> {
        if label.is_empty() || label.len() > MAX_LABEL_LEN {
            return Err(NameError::TooLong);
        }
        let mut labels = vec![label.to_ascii_lowercase().into_bytes()];
        labels.extend(self.0.iter().cloned());
        let name = Model(labels);
        if name.wire_len() > MAX_NAME_LEN {
            return Err(NameError::TooLong);
        }
        Ok(name)
    }

    fn parent(&self) -> Option<Model> {
        (!self.0.is_empty()).then(|| Model(self.0[1..].to_vec()))
    }

    fn is_subdomain_of(&self, other: &Model) -> bool {
        self.0.len() >= other.0.len() && self.0[self.0.len() - other.0.len()..] == other.0[..]
    }

    fn encode_uncompressed(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for label in &self.0 {
            out.push(label.len() as u8);
            out.extend_from_slice(label);
        }
        out.push(0);
        out
    }

    fn display(&self) -> String {
        if self.0.is_empty() {
            return ".".to_owned();
        }
        let labels: Vec<_> = self.0.iter().map(|l| String::from_utf8_lossy(l)).collect();
        labels.join(".")
    }
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Every observer of one name, and every relation between two.
fn assert_same(name: &DnsName, model: &Model, other: &DnsName, other_model: &Model) {
    assert_eq!(name.labels().collect::<Vec<_>>(), model.0);
    assert_eq!(name.label_count(), model.0.len());
    assert_eq!(name.to_string(), model.display());
    assert_eq!(name.encode_uncompressed(), model.encode_uncompressed());
    assert_eq!(
        format!("{name:?}"),
        format!("DnsName {{ labels: {:?} }}", model.0)
    );
    assert_eq!(name.clone(), *name);
    assert_eq!(name == other, model == other_model);
    assert_eq!(name.cmp(other), model.cmp(other_model));
    assert_eq!(name.partial_cmp(other), model.partial_cmp(other_model));
    if model == other_model {
        assert_eq!(hash_of(name), hash_of(other));
    }
    assert_eq!(
        name.is_subdomain_of(other),
        model.is_subdomain_of(other_model)
    );
    assert_eq!(
        other.is_subdomain_of(name),
        other_model.is_subdomain_of(model)
    );
}

/// A label of `seed.len()` bytes over an alphabet small enough to collide
/// and mixed enough to need folding — empty and over-long included.
fn label(seed: &[u8]) -> String {
    seed.iter()
        .map(|b| char::from(b"abABzZ09-_\xE9"[usize::from(*b) % 11]))
        .collect()
}

mirage_testkit::property! {
    #![cases(256)]

    /// One schedule: each step derives a new name from the current one or
    /// from text, on both representations, and compares them — against
    /// each other and in relation to the name before.
    fn prop_flat_name_is_the_label_vector(
        schedule in collection::vec((0u8..6, collection::vec(0u8..=255, 0..70), 0usize..6), 1..40),
    ) {
        let (mut name, mut model) = (DnsName::root(), Model::default());
        for (op, seed, repeat) in schedule {
            let (prev, prev_model) = (name.clone(), model.clone());
            let text = label(&seed);
            match op {
                // Prepend one label (growing towards the 255-byte limit).
                0 | 1 => {
                    let (got, want) = (name.child(&text), model.child(&text));
                    assert_eq!(got.is_ok(), want.is_ok(), "child({text:?}) of {model:?}");
                    assert_eq!(got.as_ref().err(), want.as_ref().err());
                    if let (Ok(n), Ok(m)) = (got, want) {
                        (name, model) = (n, m);
                    }
                }
                2 => {
                    let (got, want) = (name.parent(), model.parent());
                    assert_eq!(got.is_some(), want.is_some());
                    if let (Some(n), Some(m)) = (got, want) {
                        (name, model) = (n, m);
                    }
                }
                // Parse dotted text: the label `repeat` times over, in
                // front of the current name, with or without the dot.
                3 | 4 => {
                    let mut dotted = format!("{text}.").repeat(repeat);
                    dotted.push_str(&model.display());
                    if op == 4 && !model.0.is_empty() {
                        dotted.push('.');
                    }
                    let (got, want) = (DnsName::parse(&dotted), Model::parse(&dotted));
                    assert_eq!(got.as_ref().err(), want.as_ref().err(), "parse({dotted:?})");
                    if let (Ok(n), Ok(m)) = (got, want) {
                        (name, model) = (n, m);
                    }
                }
                // Through the wire, upper-cased on the way.
                _ => {
                    let mut wire = vec![0xAA; repeat];
                    wire.extend(model.encode_uncompressed().to_ascii_uppercase());
                    let (decoded, used) = DnsName::decode(&wire, repeat).expect("a valid name");
                    assert_eq!(used, wire.len() - repeat);
                    name = decoded;
                }
            }
            assert_same(&name, &model, &prev, &prev_model);
        }
    }
}
