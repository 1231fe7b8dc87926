//! Config-file-driven network construction, in the spirit of the
//! original ZNN release's network specification files.
//!
//! A spec is a line-oriented text format:
//!
//! ```text
//! # layered 3D boundary detector
//! input width=1
//! conv width=8 kernel=3,3,3
//! transfer fn=relu
//! maxfilter window=2,2,2        # lock-step sparsity bump
//! conv width=8 kernel=3,3,3
//! transfer fn=relu
//! maxpool window=2,2,2          # pooling variant
//! conv width=1 kernel=3,3,3
//! transfer fn=logistic
//! ```
//!
//! Lines are `directive key=value ...`; `#` starts a comment; kernel
//! and window triples may be abbreviated to a single integer (isotropic)
//! or a pair (2D, leading axis 1). See [`parse_spec`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod spec;

pub use spec::{parse_spec, SpecError};
