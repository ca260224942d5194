//! Pinned per-seed goldens (`goldens.txt`). A seed without a pinned
//! entry is still checked run against run within the process; a seed
//! with one must also match it bit for bit.
//!
//! Regenerate with `perfbench --capture-goldens FROM TO` after an
//! intentional numerics change, and say why in the change.

/// Golden of one `train-h-adv` training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainGolden {
    /// FNV-1a over the trained parameters' bits.
    pub params_fnv: u64,
    /// Bits of the final epoch's MSE.
    pub mse_bits: u32,
}

/// Golden of one `scenario-grid` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridGolden {
    /// `ScenarioCorpus::checksum()`.
    pub corpus: u64,
    /// FNV-1a of the network report's bytes.
    pub report: u64,
}

const GOLDENS: &str = include_str!("../goldens.txt");

/// The `key=0x…` fields of the line for `(workload, seed)`.
fn fields(workload: &str, seed: u64) -> Option<Vec<(&'static str, u64)>> {
    GOLDENS.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        if parts.next()? != workload || parts.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        Some(
            parts
                .filter_map(|kv| {
                    let (k, v) = kv.split_once('=')?;
                    Some((k, u64::from_str_radix(v.trim_start_matches("0x"), 16).ok()?))
                })
                .collect(),
        )
    })
}

fn field(fs: &[(&str, u64)], key: &str) -> Option<u64> {
    fs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// The pinned training-run golden for `seed`, if any.
pub fn train(seed: u64) -> Option<TrainGolden> {
    let fs = fields("train-h-adv", seed)?;
    Some(TrainGolden {
        params_fnv: field(&fs, "params")?,
        mse_bits: u32::try_from(field(&fs, "mse")?).ok()?,
    })
}

/// The pinned FNV-32 of the serve storm's responses for `seed`, if any.
pub fn serve(seed: u64) -> Option<u32> {
    u32::try_from(field(&fields("serve-h-closed", seed)?, "responses")?).ok()
}

/// The pinned grid golden for `seed`, if any.
pub fn grid(seed: u64) -> Option<GridGolden> {
    let fs = fields("scenario-grid", seed)?;
    Some(GridGolden {
        corpus: field(&fs, "corpus")?,
        report: field(&fs, "report")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_goldens_hold_at_one_thread_and_at_nproc() {
        let _g = crate::test_lock();
        let seed = 0;
        for threads in [1, crate::host::nproc()] {
            apots_par::set_threads(threads);
            assert_eq!(
                Some(crate::train::golden_of(seed)),
                train(seed),
                "threads {threads}"
            );
            assert_eq!(
                Some(crate::serve::golden_of(seed)),
                serve(seed),
                "threads {threads}"
            );
            assert_eq!(
                Some(crate::serve::served_fnv32(seed)),
                serve(seed),
                "threads {threads}"
            );
            assert_eq!(
                Some(crate::grid::golden_of(seed)),
                grid(seed),
                "threads {threads}"
            );
        }
        apots_par::reset_threads();
    }

    #[test]
    fn unpinned_seeds_have_no_golden() {
        assert_eq!(train(u64::MAX), None);
        assert_eq!(serve(u64::MAX), None);
        assert_eq!(grid(u64::MAX), None);
    }
}
