//! Outside the configured pipeline directories: threads are free here.
//! Never compiled — lexed by the fixture tests only.

pub fn pool(items: Vec<u32>) -> Vec<u32> {
    items.par_iter().map(|x| x + 1).collect()
}
