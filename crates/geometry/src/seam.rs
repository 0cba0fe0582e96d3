//! The dispatch-seam core: how a hot loop with interchangeable,
//! bit-identical backends picks the one it runs.
//!
//! Every seam in the workspace (the f32 GEMM, OIS sampling, VEG gather
//! top-K, FP interpolation, preprocessing reuse) is an enum of backends
//! with one portable **anchor** and at least one optimized variant that
//! produces bit-identical results. A seam implements [`Seam`] by naming
//! its backends and its environment variable; the selection policy is
//! written once, here:
//!
//! * [`Seam::active`] resolves the seam's environment variable once per
//!   process, on first use, and caches the choice in the seam's
//!   [`OnceLock`] — every later call is one cell read, never an
//!   environment lookup.
//! * [`Seam::resolve`] maps a request to a runnable backend: empty or
//!   `auto` picks [`Seam::fastest_supported`]; a recognized backend this
//!   build or CPU cannot run also degrades to the fastest supported one;
//!   any other name prints one warning on stderr and degrades to
//!   [`Seam::ANCHOR`]. Backends are bit-identical, so degrading can
//!   never change results — a typo in a fleet rollout costs speed, not
//!   service.
//! * An explicit pin (`PointNet::with_kernel`, a `RuntimeConfig`
//!   backend field) always beats the environment: callers take the pin
//!   when present and fall back to [`Seam::active`] otherwise.
//!
//! ```
//! use std::sync::OnceLock;
//! use hgpcn_geometry::seam::Seam;
//!
//! #[derive(Clone, Copy, Debug, PartialEq, Eq)]
//! enum Sort { Insertion, Merge }
//!
//! impl Seam for Sort {
//!     const ENV: &'static str = "EXAMPLE_SORT";
//!     const ANCHOR: Sort = Sort::Insertion;
//!     fn all() -> &'static [Sort] { &[Sort::Insertion, Sort::Merge] }
//!     fn name(&self) -> &'static str {
//!         match self { Sort::Insertion => "insertion", Sort::Merge => "merge" }
//!     }
//!     fn cell() -> &'static OnceLock<Sort> {
//!         static CELL: OnceLock<Sort> = OnceLock::new();
//!         &CELL
//!     }
//! }
//!
//! assert_eq!(Sort::resolve("auto"), Sort::Merge); // fastest is last
//! assert_eq!(Sort::resolve("insertion"), Sort::Insertion);
//! assert_eq!(Sort::resolve("bogo"), Sort::Insertion); // warns, degrades to the anchor
//! ```

use std::sync::OnceLock;

/// A dispatch seam: an enum of bit-identical backends selected once per
/// process. See the [module docs](self) for the resolution contract.
pub trait Seam: Copy + Eq + Send + Sync + 'static {
    /// The environment variable that overrides the selection.
    const ENV: &'static str;

    /// The portable reference backend every other backend matches
    /// bit-for-bit; unknown requests degrade to it.
    const ANCHOR: Self;

    /// Every backend compiled into this build, fastest last.
    fn all() -> &'static [Self];

    /// Stable lower-case name, as reported in `RuntimeReport`,
    /// `/metrics` and `BENCH_runtime.json` and accepted back by
    /// [`Seam::from_name`].
    fn name(&self) -> &'static str;

    /// The seam's process-wide selection cell, written once by
    /// [`Seam::active`].
    fn cell() -> &'static OnceLock<Self>;

    /// Parses a backend name. Returns `None` for unknown names and for
    /// backends compiled out of this build.
    fn from_name(name: &str) -> Option<Self> {
        Self::all().iter().copied().find(|k| k.name() == name)
    }

    /// Whether `name` names a backend of this seam at all, even one
    /// compiled out of this build. Such a request degrades to
    /// [`Seam::fastest_supported`] without a warning.
    fn recognizes(name: &str) -> bool {
        Self::from_name(name).is_some()
    }

    /// Whether this build and the running CPU can execute the backend.
    fn is_supported(&self) -> bool {
        true
    }

    /// The fastest backend this build and CPU support.
    fn fastest_supported() -> Self {
        Self::all()
            .iter()
            .rev()
            .copied()
            .find(Self::is_supported)
            .unwrap_or(Self::ANCHOR)
    }

    /// Resolves an override request (the value of [`Seam::ENV`]) to a
    /// runnable backend; see the [module docs](self).
    fn resolve(request: &str) -> Self {
        match request {
            "" | "auto" => Self::fastest_supported(),
            name => match Self::from_name(name) {
                Some(k) if k.is_supported() => k,
                _ if Self::recognizes(name) => Self::fastest_supported(),
                _ => {
                    let expected: Vec<&str> = Self::all().iter().map(Self::name).collect();
                    eprintln!(
                        "{}: unknown backend {name:?} (expected auto | {}); \
                         degrading to the {} anchor",
                        Self::ENV,
                        expected.join(" | "),
                        Self::ANCHOR.name()
                    );
                    Self::ANCHOR
                }
            },
        }
    }

    /// The process-wide backend: [`Seam::ENV`] resolved on first use,
    /// then cached for the lifetime of the process.
    fn active() -> Self {
        *Self::cell().get_or_init(|| Self::resolve(&std::env::var(Self::ENV).unwrap_or_default()))
    }
}
