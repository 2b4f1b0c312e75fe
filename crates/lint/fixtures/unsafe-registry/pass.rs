// Fixture: scanned as crates/demo/src/pass.rs, which UNSAFE_SITES
// declares (a fixture pin), so its `unsafe` is sanctioned.

pub fn first(bytes: &[u8]) -> u8 {
    // SAFETY: fixture only; never compiled.
    unsafe { *bytes.as_ptr() }
}
