// Fixture: public query entry points on the serving crate that neither
// return/fill a QueryTrace nor appear in TRACED_ENTRY_POINTS. Both must
// be flagged.
pub fn query(&self, k: usize) -> Vec<Hit> {
    self.scan(k)
}

pub fn query_nearest(&self, k: usize) -> Vec<Hit> {
    self.scan(k).into_iter().take(1).collect()
}
