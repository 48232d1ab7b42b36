//! Offline stand-in for `serde`.
//!
//! The workspace serializes by hand (see the service crate's JSON
//! module, `cajade_service::json`), but seed types carry
//! `#[derive(Serialize)]` attributes. This stand-in keeps those compiling
//! without network access: [`Serialize`] and [`Deserialize`] are marker
//! traits blanket-implemented for every type, and the re-exported derive
//! macros (same names, macro namespace) expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait: every type is "serializable".
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker trait: every type is "deserializable".
pub trait Deserialize {}
impl<T: ?Sized> Deserialize for T {}

#[cfg(test)]
mod tests {
    #[derive(super::Serialize)]
    #[allow(dead_code)]
    struct Probe {
        x: u32,
    }

    fn assert_serialize<T: super::Serialize>(_: &T) {}

    #[test]
    fn derive_compiles_and_trait_is_blanket() {
        let p = Probe { x: 7 };
        assert_serialize(&p);
        assert_eq!(p.x, 7);
    }
}
