//! Fixture: hot-path-alloc violations inside a hot-path root fn.
//! Expected findings: lines 6, 7, 8, 9, 10, 11 (one per allocating token).
pub fn schedule_batch_into(n: usize) -> usize {
    let mut total = 0;
    {
        let buffer = vec![0u8; n];
        let label = format!("job-{n}");
        let copy = label.to_string();
        let owned: String = copy.as_str().to_owned();
        let collected: Vec<usize> = (0..n).collect();
        let boxed = Box::new(Vec::<u8>::new());
        total += buffer.len() + owned.len() + collected.len() + boxed.len();
    }
    total
}

pub fn cold_helper(n: usize) -> Vec<u8> {
    // Allocation is fine off the hot path.
    vec![0u8; n]
}
