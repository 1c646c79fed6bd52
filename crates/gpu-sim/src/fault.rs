//! Deterministic fault injection — the chaos-testing seam of the
//! simulated device.
//!
//! Real accelerator deployments see transient launch rejections,
//! allocation failures under memory pressure, and (rarely but
//! measurably) corrupted device memory. A driver stack that claims
//! LAPACK-compliant error reporting has to be *provably* robust against
//! all three, which requires reproducing them on demand. A [`FaultPlan`]
//! is a declarative, seed-replayable list of faults installed on a
//! [`crate::Device`]:
//!
//! * [`Fault::TransientLaunch`] — the Nth..(N+times)th launches whose
//!   kernel name contains a substring are rejected with
//!   [`crate::LaunchError::Injected`] *before any block runs* (the same
//!   zero-side-effect contract as an occupancy rejection), then succeed
//!   again — the model of a transient driver/runtime failure a retry
//!   absorbs;
//! * [`Fault::OomAtAlloc`] — one chosen allocation attempt (by index
//!   since plan install) fails with [`crate::OomError`];
//! * [`Fault::SoftCeiling`] — every allocation that would push usage
//!   above an artificial ceiling fails, persistently — the model of a
//!   device shared with another tenant;
//! * [`Fault::Corrupt`] — after the Kth launch, one element of a named
//!   registered buffer is overwritten (NaN or bit-flip) — the model of
//!   an uncorrected memory error.
//!
//! Everything is deterministic: the same plan against the same call
//! sequence injects the same faults, and [`FaultPlan::random_recoverable`]
//! derives a whole plan from a single `u64` seed (splitmix64), so a chaos
//! proptest failure is replayable from one integer. Injections are
//! enumerable afterwards via [`crate::Device::fault_events`].

/// How [`Fault::Corrupt`] rewrites the victim element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Overwrite with a quiet NaN.
    Nan,
    /// Flip one bit (index taken modulo the element width).
    BitFlip {
        /// Bit index within the element.
        bit: u32,
    },
}

/// One deterministic fault in a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Reject launches whose kernel name contains `name_contains`:
    /// matches number `nth ..< nth + times` (0-based, counted across
    /// the plan's lifetime — retries count as matches) fail with
    /// [`crate::LaunchError::Injected`]; later matches succeed.
    TransientLaunch {
        /// Substring of the kernel name (empty matches every launch).
        name_contains: String,
        /// First matching launch to reject (0-based).
        nth: u64,
        /// Number of consecutive matches to reject.
        times: u32,
    },
    /// Fail allocation attempt number `nth` (0-based, counted from plan
    /// install) with a fabricated [`crate::OomError`]. One-shot: the
    /// retry is attempt `nth + 1` and succeeds.
    OomAtAlloc {
        /// Allocation attempt to fail.
        nth: u64,
    },
    /// Persistently fail any allocation that would raise `in_use` above
    /// `bytes` (a soft capacity below the device's real one).
    SoftCeiling {
        /// Artificial capacity in bytes.
        bytes: usize,
    },
    /// After launch number `after_launch` has completed, overwrite
    /// element `elem % len` of the first registered target whose name
    /// contains `target`. Fires once.
    Corrupt {
        /// Substring of the registered buffer name.
        target: String,
        /// Completed-launch count that triggers the write.
        after_launch: u64,
        /// Element index (reduced modulo the buffer length).
        elem: usize,
        /// What to write.
        kind: Corruption,
    },
}

/// A deterministic, replayable set of faults. Build with the fluent
/// methods or derive from a seed with [`FaultPlan::random_recoverable`];
/// install with [`crate::Device::install_fault_plan`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a [`Fault::TransientLaunch`].
    #[must_use]
    pub fn transient_launch(mut self, name_contains: &str, nth: u64, times: u32) -> Self {
        self.faults.push(Fault::TransientLaunch {
            name_contains: name_contains.to_string(),
            nth,
            times,
        });
        self
    }

    /// Adds a [`Fault::OomAtAlloc`].
    #[must_use]
    pub fn oom_at_alloc(mut self, nth: u64) -> Self {
        self.faults.push(Fault::OomAtAlloc { nth });
        self
    }

    /// Adds a [`Fault::SoftCeiling`].
    #[must_use]
    pub fn soft_ceiling(mut self, bytes: usize) -> Self {
        self.faults.push(Fault::SoftCeiling { bytes });
        self
    }

    /// Adds a [`Fault::Corrupt`].
    #[must_use]
    pub fn corrupt(
        mut self,
        target: &str,
        after_launch: u64,
        elem: usize,
        kind: Corruption,
    ) -> Self {
        self.faults.push(Fault::Corrupt {
            target: target.to_string(),
            after_launch,
            elem,
            kind,
        });
        self
    }

    /// Derives a plan of *recoverable* faults from a single seed:
    /// transient launch rejections short enough for a default bounded
    /// retry (`times ≤ 2`) and one-shot allocation failures. The same
    /// seed always produces the same plan, so a failing chaos case is
    /// replayable from one integer.
    #[must_use]
    pub fn random_recoverable(seed: u64) -> Self {
        // Kernel-name vocabulary of the vbatched stack; the empty string
        // matches every launch (pure "Nth launch overall" faults).
        const VOCAB: [&str; 10] = [
            "potrf", "fused", "potf2", "trsm", "syrk", "trtri", "aux", "step", "ilv", "",
        ];
        let mut state = seed;
        let mut next = move || splitmix64(&mut state);
        let count = 1 + (next() % 4) as usize;
        let mut plan = Self {
            seed,
            faults: Vec::with_capacity(count),
        };
        for _ in 0..count {
            if next() % 3 < 2 {
                let name = VOCAB[(next() % VOCAB.len() as u64) as usize];
                let nth = next() % 24;
                let times = 1 + (next() % 2) as u32;
                plan = plan.transient_launch(name, nth, times);
            } else {
                plan = plan.oom_at_alloc(next() % 12);
            }
        }
        plan
    }

    /// The seed the plan was derived from (0 for hand-built plans).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The faults, for enumeration in test matrices.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// One injection that actually fired, in order. Enumerate with
/// [`crate::Device::fault_events`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectionEvent {
    /// A launch was rejected with [`crate::LaunchError::Injected`].
    LaunchRejected {
        /// Kernel name of the rejected launch.
        name: &'static str,
        /// Launch-attempt index (0-based since plan install).
        launch: u64,
    },
    /// An allocation was denied with a fabricated [`crate::OomError`].
    AllocDenied {
        /// Allocation-attempt index (0-based since plan install).
        alloc: u64,
        /// Bytes the denied allocation requested.
        requested: usize,
    },
    /// A registered buffer element was overwritten.
    Corrupted {
        /// Name the buffer was registered under.
        target: String,
        /// Element index that was rewritten.
        elem: usize,
        /// Completed-launch count at the time of the write.
        launch: u64,
    },
}

/// splitmix64 — tiny, high-quality, dependency-free PRNG step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A corruption target registered on the device: a raw view of a device
/// buffer plus the name corruption faults match against.
pub(crate) struct Target {
    name: String,
    addr: *mut u8,
    len: usize,
    elem_size: usize,
}

// SAFETY: `Target`'s address points into a `DeviceBuffer` allocation
// the registering caller keeps alive for the plan's lifetime (the same
// contract as `DevicePtr`); corruption writes happen under the device's
// fault lock.
unsafe impl Send for Target {}

/// Per-device mutable injection state (lives behind the device's fault
/// mutex; all counters advance deterministically with the call sequence).
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Per-fault match counters (TransientLaunch) / fired flags (Corrupt).
    matches: Vec<u64>,
    fired: Vec<bool>,
    launches: u64,
    allocs: u64,
    targets: Vec<Target>,
    log: Vec<InjectionEvent>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let n = plan.faults.len();
        Self {
            plan,
            matches: vec![0; n],
            fired: vec![false; n],
            launches: 0,
            allocs: 0,
            targets: Vec::new(),
            log: Vec::new(),
        }
    }

    pub(crate) fn register_target(
        &mut self,
        name: String,
        addr: *mut u8,
        len: usize,
        elem_size: usize,
    ) {
        self.targets.push(Target {
            name,
            addr,
            len,
            elem_size,
        });
    }

    /// Called at every launch attempt (after the occupancy check, before
    /// any block runs). Returns `true` when the launch must be rejected.
    pub(crate) fn on_launch(&mut self, name: &'static str) -> bool {
        let attempt = self.launches;
        self.launches += 1;
        let mut inject = false;
        for (f, m) in self.plan.faults.iter().zip(self.matches.iter_mut()) {
            if let Fault::TransientLaunch {
                name_contains,
                nth,
                times,
            } = f
            {
                if name.contains(name_contains.as_str()) {
                    let idx = *m;
                    *m += 1;
                    if idx >= *nth && idx < *nth + u64::from(*times) {
                        inject = true;
                    }
                }
            }
        }
        if inject {
            self.log.push(InjectionEvent::LaunchRejected {
                name,
                launch: attempt,
            });
        }
        inject
    }

    /// Called at every allocation attempt. Returns the fabricated error
    /// when the attempt must be denied.
    pub(crate) fn on_alloc(
        &mut self,
        requested: usize,
        in_use: usize,
        capacity: usize,
    ) -> Option<crate::mem::OomError> {
        let attempt = self.allocs;
        self.allocs += 1;
        let mut deny: Option<usize> = None; // reported capacity
        for f in &self.plan.faults {
            match f {
                Fault::OomAtAlloc { nth } if *nth == attempt => {
                    deny = Some(deny.map_or(capacity, |c| c.min(capacity)));
                }
                Fault::SoftCeiling { bytes } if in_use.saturating_add(requested) > *bytes => {
                    deny = Some(deny.map_or(*bytes, |c| c.min(*bytes)));
                }
                _ => {}
            }
        }
        let reported_capacity = deny?;
        self.log.push(InjectionEvent::AllocDenied {
            alloc: attempt,
            requested,
        });
        Some(crate::mem::OomError {
            requested,
            in_use,
            capacity: reported_capacity,
        })
    }

    /// Called after a launch has committed:
    /// applies every due, not-yet-fired corruption.
    pub(crate) fn after_launch(&mut self) {
        for (k, f) in self.plan.faults.iter().enumerate() {
            let Fault::Corrupt {
                target,
                after_launch,
                elem,
                kind,
            } = f
            else {
                continue;
            };
            if self.fired[k] || self.launches < *after_launch {
                continue;
            }
            self.fired[k] = true;
            let Some(t) = self
                .targets
                .iter()
                .find(|t| t.len > 0 && t.name.contains(target.as_str()))
            else {
                continue;
            };
            let e = elem % t.len;
            corrupt_element(t, e, *kind);
            self.log.push(InjectionEvent::Corrupted {
                target: t.name.clone(),
                elem: e,
                launch: self.launches,
            });
        }
    }

    pub(crate) fn events(&self) -> Vec<InjectionEvent> {
        self.log.clone()
    }

    pub(crate) fn into_events(self) -> Vec<InjectionEvent> {
        self.log
    }
}

/// Rewrites element `e` of the target in place. Elements of width 8 are
/// treated as `f64`, width 4 as `f32`; other widths get a raw first-byte
/// bit-flip (NaN is meaningless there).
fn corrupt_element(t: &Target, e: usize, kind: Corruption) {
    debug_assert!(e < t.len);
    // SAFETY: `e < len` and the registration contract keeps the buffer
    // alive; writes are serialized by the device fault lock.
    unsafe {
        match (t.elem_size, kind) {
            (8, Corruption::Nan) => {
                let p = t.addr.cast::<f64>().add(e);
                *p = f64::NAN;
            }
            (8, Corruption::BitFlip { bit }) => {
                let p = t.addr.cast::<u64>().add(e);
                *p ^= 1u64 << (bit % 64);
            }
            (4, Corruption::Nan) => {
                let p = t.addr.cast::<f32>().add(e);
                *p = f32::NAN;
            }
            (4, Corruption::BitFlip { bit }) => {
                let p = t.addr.cast::<u32>().add(e);
                *p ^= 1u32 << (bit % 32);
            }
            (w, _) => {
                let p = t.addr.add(e * w);
                *p ^= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_replayable_and_recoverable() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let a = FaultPlan::random_recoverable(seed);
            let b = FaultPlan::random_recoverable(seed);
            assert_eq!(a, b, "seed {seed} not replayable");
            assert!(!a.is_empty() && a.len() <= 4);
            assert_eq!(a.seed(), seed);
            for f in a.faults() {
                match f {
                    Fault::TransientLaunch { times, .. } => {
                        assert!(*times <= 2, "fault deeper than the default retry budget");
                    }
                    Fault::OomAtAlloc { .. } => {}
                    other => panic!("non-recoverable fault generated: {other:?}"),
                }
            }
        }
        assert_ne!(
            FaultPlan::random_recoverable(1),
            FaultPlan::random_recoverable(2)
        );
    }

    #[test]
    fn transient_launch_fails_exact_window() {
        let plan = FaultPlan::new().transient_launch("syrk", 1, 2);
        let mut st = FaultState::new(plan);
        assert!(!st.on_launch("dsyrk_tile")); // match 0
        assert!(st.on_launch("dsyrk_tile")); // match 1 → fail
        assert!(!st.on_launch("dgemm_tile")); // not a match
        assert!(st.on_launch("ssyrk_vbatched")); // match 2 → fail
        assert!(!st.on_launch("dsyrk_tile")); // match 3 → recovered
        assert_eq!(st.events().len(), 2);
    }

    #[test]
    fn empty_substring_matches_every_launch() {
        let plan = FaultPlan::new().transient_launch("", 0, 1);
        let mut st = FaultState::new(plan);
        assert!(st.on_launch("anything"));
        assert!(!st.on_launch("anything"));
    }

    #[test]
    fn oom_at_alloc_is_one_shot_and_soft_ceiling_persists() {
        let plan = FaultPlan::new().oom_at_alloc(1).soft_ceiling(1000);
        let mut st = FaultState::new(plan);
        assert!(st.on_alloc(100, 0, 1 << 20).is_none()); // attempt 0
        let e = st.on_alloc(100, 0, 1 << 20).unwrap(); // attempt 1: injected
        assert_eq!(e.requested, 100);
        assert!(st.on_alloc(100, 0, 1 << 20).is_none()); // retry succeeds
        let e = st.on_alloc(100, 950, 1 << 20).unwrap(); // over the ceiling
        assert_eq!(e.capacity, 1000);
        assert!(st.on_alloc(100, 950, 1 << 20).is_some(), "ceiling persists");
        assert!(st.on_alloc(40, 950, 1 << 20).is_none(), "under the ceiling");
    }

    #[test]
    fn corruption_writes_nan_and_flips_bits() {
        let mut buf = [1.0f64, 2.0, 3.0];
        let plan = FaultPlan::new()
            .corrupt("mat", 2, 1, Corruption::Nan)
            .corrupt("mat", 2, 2, Corruption::BitFlip { bit: 63 });
        let mut st = FaultState::new(plan);
        st.register_target("mat0".into(), buf.as_mut_ptr().cast(), 3, 8);
        st.on_launch("k"); // launch 0 completes → launches = 1
        st.after_launch();
        assert_eq!(buf, [1.0, 2.0, 3.0], "too early to fire");
        st.on_launch("k"); // launches = 2
        st.after_launch();
        assert!(buf[1].is_nan());
        assert_eq!(buf[2], -3.0, "sign-bit flip");
        let before = buf[1].to_bits();
        st.on_launch("k");
        st.after_launch();
        assert_eq!(buf[1].to_bits(), before, "corruption fires once");
        assert_eq!(st.events().len(), 2);
    }

    #[test]
    fn corruption_elem_wraps_modulo_len() {
        let mut buf = [0.0f32; 4];
        let plan = FaultPlan::new().corrupt("t", 0, 9, Corruption::Nan);
        let mut st = FaultState::new(plan);
        st.register_target("t".into(), buf.as_mut_ptr().cast(), 4, 4);
        st.on_launch("k");
        st.after_launch();
        assert!(buf[1].is_nan(), "9 % 4 = 1");
    }
}
