// Fixture: `unsafe` in a file UNSAFE_SITES does not declare. Scanned
// as crates/demo/src/fail.rs.

pub fn first(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}

#[cfg(test)]
mod tests {
    // No test exemption for this rule.
    unsafe fn helper() {}
}
