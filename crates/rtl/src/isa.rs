//! The litmus-subset ISA executed by Multi-V-scale.
//!
//! The RTLCheck evaluation only exercises loads, stores, and the halt
//! instruction the authors added to V-scale. This module fixes the encoding
//! of those instructions in the modelled design: a packed word of
//! `(kind, address, data)` fields rather than RISC-V bit patterns — the
//! consistency-relevant content of an instruction is exactly those fields.

use std::error::Error;
use std::fmt;

use rtlcheck_litmus::{LitmusTest, Op};

/// Instruction/pipeline-slot kind encodings (3 bits).
pub mod kind {
    /// Halt: stops the core once it reaches Writeback.
    pub const HALT: u64 = 0;
    /// Load from a data-memory word.
    pub const LOAD: u64 = 1;
    /// Store an immediate to a data-memory word.
    pub const STORE: u64 = 2;
    /// Pipeline bubble (never appears in instruction memory).
    pub const BUBBLE: u64 = 3;
    /// Full memory fence (mfence-style; drains the TSO store buffer).
    pub const FENCE: u64 = 4;
}

/// Program-counter value of a pipeline bubble: no real instruction ever has
/// this PC, so node-mapping equality checks cannot match bubbles.
pub const BUBBLE_PC: u64 = 0xFFFF_FFFF;

/// Byte distance between consecutive instructions.
pub const PC_STEP: u64 = 4;

/// Byte distance between the PC bases of consecutive cores. Programs are
/// limited to 15 instructions plus the final halt.
pub const CORE_PC_STRIDE: u64 = 64;

/// A decoded instruction as stored in instruction memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncInstr {
    /// One of the [`kind`] encodings.
    pub kind: u64,
    /// Word address in data memory (the litmus location index).
    pub addr: u64,
    /// Store immediate (0 for loads and halts).
    pub data: u64,
}

impl EncInstr {
    /// The halt instruction.
    pub const HALT: EncInstr = EncInstr {
        kind: kind::HALT,
        addr: 0,
        data: 0,
    };

    /// Packs the instruction into a single word:
    /// `kind[42:40] | addr[39:32] | data[31:0]`.
    pub fn packed(self) -> u64 {
        (self.kind << 40) | (self.addr << 32) | self.data
    }
}

/// The starting PC of a core's program.
pub fn pc_base(core: usize) -> u64 {
    core as u64 * CORE_PC_STRIDE
}

/// The PC of instruction `index` (0-based, program order) on `core`.
pub fn pc_of(core: usize, index: usize) -> u64 {
    pc_base(core) + index as u64 * PC_STEP
}

/// Encodes one thread of a litmus test, terminated by [`EncInstr::HALT`].
pub fn encode_thread(ops: &[Op]) -> Vec<EncInstr> {
    let mut out: Vec<EncInstr> = ops
        .iter()
        .map(|op| match *op {
            Op::Load { loc, .. } => EncInstr {
                kind: kind::LOAD,
                addr: loc.0 as u64,
                data: 0,
            },
            Op::Store { loc, val } => EncInstr {
                kind: kind::STORE,
                addr: loc.0 as u64,
                data: u64::from(val.0),
            },
            Op::Fence => EncInstr {
                kind: kind::FENCE,
                addr: 0,
                data: 0,
            },
        })
        .collect();
    out.push(EncInstr::HALT);
    out
}

/// The most instructions one thread may have: the per-core PC window less
/// the final halt.
pub const MAX_THREAD_LEN: usize = (CORE_PC_STRIDE / PC_STEP) as usize - 1;

/// Why a litmus test cannot be loaded into a design's instruction memories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// The test has more threads than the design has cores.
    TooManyThreads {
        /// The test's name.
        test: String,
        /// Threads in the test.
        threads: usize,
        /// Cores in the design.
        cores: usize,
    },
    /// A thread has more instructions than the per-core PC window holds.
    ThreadTooLong {
        /// The test's name.
        test: String,
        /// The offending thread.
        thread: usize,
        /// Its instruction count.
        len: usize,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooManyThreads {
                test,
                threads,
                cores,
            } => write!(
                f,
                "test `{test}` needs {threads} cores but the design has {cores}"
            ),
            FitError::ThreadTooLong { test, thread, len } => write!(
                f,
                "thread {thread} of `{test}` has {len} instructions but the \
                 per-core PC window holds {MAX_THREAD_LEN}"
            ),
        }
    }
}

impl Error for FitError {}

/// Checks that a litmus test fits a machine with `num_cores` cores: no more
/// threads than cores, and no thread longer than [`MAX_THREAD_LEN`].
///
/// # Errors
///
/// Returns the first [`FitError`] found.
pub fn check_fit(test: &LitmusTest, num_cores: usize) -> Result<(), FitError> {
    if test.num_cores() > num_cores {
        return Err(FitError::TooManyThreads {
            test: test.name().to_string(),
            threads: test.num_cores(),
            cores: num_cores,
        });
    }
    match test
        .threads()
        .iter()
        .position(|ops| ops.len() > MAX_THREAD_LEN)
    {
        Some(thread) => Err(FitError::ThreadTooLong {
            test: test.name().to_string(),
            thread,
            len: test.threads()[thread].len(),
        }),
        None => Ok(()),
    }
}

/// Encodes all programs of a litmus test for a machine with `num_cores`
/// cores. Cores beyond the test's threads run an immediate halt.
///
/// # Panics
///
/// Panics if the test does not fit the machine (see [`check_fit`]).
pub fn encode_programs(test: &LitmusTest, num_cores: usize) -> Vec<Vec<EncInstr>> {
    if let Err(e) = check_fit(test, num_cores) {
        panic!("{e}");
    }
    (0..num_cores)
        .map(|c| match test.threads().get(c) {
            Some(ops) => encode_thread(ops),
            None => vec![EncInstr::HALT],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcheck_litmus::suite;

    #[test]
    fn pc_layout() {
        assert_eq!(pc_base(0), 0);
        assert_eq!(pc_base(1), 64);
        assert_eq!(pc_of(1, 2), 72);
    }

    #[test]
    fn encodes_mp_with_halts() {
        let mp = suite::get("mp").unwrap();
        let progs = encode_programs(&mp, 4);
        assert_eq!(progs.len(), 4);
        assert_eq!(progs[0].len(), 3, "two stores + halt");
        assert_eq!(progs[0][0].kind, kind::STORE);
        assert_eq!(progs[0][0].data, 1);
        assert_eq!(progs[1][0].kind, kind::LOAD);
        assert_eq!(progs[1][2], EncInstr::HALT);
        assert_eq!(
            progs[2],
            vec![EncInstr::HALT],
            "unused core halts immediately"
        );
    }

    #[test]
    fn packed_fields_are_disjoint() {
        let i = EncInstr {
            kind: kind::STORE,
            addr: 0x7,
            data: 0xDEAD_BEEF,
        };
        let p = i.packed();
        assert_eq!(p >> 40, kind::STORE);
        assert_eq!((p >> 32) & 0xFF, 0x7);
        assert_eq!(p & 0xFFFF_FFFF, 0xDEAD_BEEF);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn too_many_threads_panics() {
        let iriw = suite::get("iriw").unwrap();
        encode_programs(&iriw, 2);
    }

    #[test]
    fn fit_allows_exactly_the_pc_window() {
        let stores = |n: usize| {
            let body = "st x, 1; ".repeat(n);
            rtlcheck_litmus::parse(&format!(
                "test long\n{{ x = 0; }}\ncore 0 {{ {body}}}\nforbid ( x = 0 )"
            ))
            .unwrap()
        };
        assert_eq!(check_fit(&stores(MAX_THREAD_LEN), 4), Ok(()));
        assert_eq!(
            check_fit(&stores(MAX_THREAD_LEN + 1), 4),
            Err(FitError::ThreadTooLong {
                test: "long".into(),
                thread: 0,
                len: 16
            })
        );
    }

    #[test]
    fn whole_suite_encodes_for_four_cores() {
        for t in suite::all() {
            let progs = encode_programs(&t, 4);
            assert_eq!(progs.len(), 4, "{}", t.name());
        }
    }
}
