//! The NPU's instruction set and instruction memory.
//!
//! The runtime switches the 4-bit ratio by loading the instruction words
//! of the selected model version into instruction memory; the paper
//! measures this at under 0.3 µs (§8.5). Each instruction encodes to one
//! 64-bit word, so the reload cost is proportional to the program length.

use crate::array::Precision;

/// One NPU instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Load a weight tile into the array.
    LoadWeights {
        /// Tile identifier (address).
        tile: u32,
    },
    /// Switch the PE compute precision.
    SetPrecision(Precision),
    /// Stream `n` activation columns through the loaded tile.
    Gemm {
        /// Columns to stream.
        n: u32,
    },
    /// Store an output additionally to a reordered location (the §5
    /// residual-reorder store).
    StoreReordered {
        /// Destination buffer id.
        dst: u32,
    },
    /// Plain output store.
    Store {
        /// Destination buffer id.
        dst: u32,
    },
}

impl Instr {
    /// Encoded size in bytes (one 64-bit word per instruction).
    pub const ENCODED_BYTES: usize = 8;
}

/// The instruction memory with reload-cost accounting.
#[derive(Debug, Clone, Default)]
pub struct InstructionMemory {
    program: Vec<Instr>,
    /// Total words written since construction (telemetry).
    pub words_written: u64,
}

impl InstructionMemory {
    /// Creates an empty instruction memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a program, returning the reload time in microseconds.
    ///
    /// The paper's prototype writes instruction words at the memory bus
    /// rate; with a 64-bit bus at 200 MHz one word lands per 5 ns cycle.
    pub fn load(&mut self, program: Vec<Instr>, bus_mhz: f64) -> f64 {
        let words = program.len() as u64;
        self.words_written += words;
        self.program = program;
        words as f64 / bus_mhz // cycles at one word/cycle → µs at MHz
    }

    /// The loaded program.
    pub fn program(&self) -> &[Instr] {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reload_time_scales_with_program_length() {
        let mut im = InstructionMemory::new();
        let short: Vec<Instr> = vec![Instr::Gemm { n: 8 }; 10];
        let long: Vec<Instr> = vec![Instr::Gemm { n: 8 }; 50];
        let t_short = im.load(short, 200.0);
        let t_long = im.load(long, 200.0);
        assert!(t_long > t_short);
        assert_eq!(im.words_written, 60);
    }

    #[test]
    fn paper_scale_programs_reload_under_microseconds() {
        // A ResNet-18-class program is a few dozen instructions; reload
        // must land under the paper's 0.3 µs bound.
        let mut im = InstructionMemory::new();
        let program: Vec<Instr> = (0..48)
            .map(|i| {
                if i % 2 == 0 {
                    Instr::LoadWeights { tile: i }
                } else {
                    Instr::Gemm { n: 64 }
                }
            })
            .collect();
        let t = im.load(program, 200.0);
        assert!(t < 0.3, "reload {t} µs exceeds the paper's bound");
    }

    #[test]
    fn program_is_stored() {
        let mut im = InstructionMemory::new();
        im.load(
            vec![
                Instr::SetPrecision(Precision::Int4),
                Instr::Store { dst: 1 },
            ],
            200.0,
        );
        assert_eq!(im.program().len(), 2);
    }
}
