// Fixture: every public query entry point is trace-covered — it
// returns the QueryTrace it filled, is internal plumbing, or carries a
// justified annotation.
pub fn query_traced(&self, k: usize) -> (Vec<Hit>, QueryTrace) {
    let mut trace = QueryTrace::begin(self.strategy, 1);
    let hits = self.scan(k, &mut trace);
    (hits, trace)
}

// Internal plumbing; `pub(crate)` is not an entry point.
pub(crate) fn query_inner(&self, k: usize) -> Vec<Hit> {
    self.scan(k)
}

// Non-query public API is out of the rule's scope.
pub fn rebuild(&mut self) {
    self.refresh()
}

// lint: allow(trace-span) — bench-only probe, never serves traffic
pub fn query_count(&self) -> usize {
    self.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn untraced_query_helpers_are_fine_in_tests() {
        pub fn query_fixture() -> usize {
            3
        }
        assert_eq!(query_fixture(), 3);
    }
}
