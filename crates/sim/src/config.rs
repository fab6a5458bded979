//! Machine configuration (the paper's Table II).

use sparsenn_noc::NocConfig;

/// Why an `rows × cols` layer cannot run on a machine — the typed result
/// of [`MachineConfig::validate_layer`]. The W-memory case carries the
/// exact sizes so capacity planners (the multi-chip partitioner) can
/// report how far over budget a layer is instead of parsing a string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerFitError {
    /// The layer's input width exceeds the activation register files.
    TooManyInputs {
        /// Input activations the layer needs.
        cols: usize,
        /// Register-file entries available ([`MachineConfig::max_activations`]).
        max: usize,
    },
    /// The layer's output width exceeds the activation register files.
    TooManyOutputs {
        /// Output activations the layer produces.
        rows: usize,
        /// Register-file entries available ([`MachineConfig::max_activations`]).
        max: usize,
    },
    /// The layer's weights exceed the per-PE W memory.
    WMemoryOverflow {
        /// Weight words the layer needs per PE.
        words: usize,
        /// Words the W memory holds per PE
        /// ([`MachineConfig::w_capacity_words_per_pe`]).
        capacity: usize,
    },
    /// The machine itself cannot run ([`MachineConfig::validate`]).
    Config(ConfigError),
}

impl std::fmt::Display for LayerFitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayerFitError::TooManyInputs { cols, max } => {
                write!(
                    f,
                    "{cols} input activations exceed the {max}-entry register files"
                )
            }
            LayerFitError::TooManyOutputs { rows, max } => {
                write!(
                    f,
                    "{rows} output activations exceed the {max}-entry register files"
                )
            }
            LayerFitError::WMemoryOverflow { words, capacity } => {
                write!(
                    f,
                    "layer needs {words} weight words per PE, W memory holds {capacity}"
                )
            }
            LayerFitError::Config(e) => write!(f, "invalid machine configuration: {e}"),
        }
    }
}

impl std::error::Error for LayerFitError {}

/// Largest PE count [`MachineConfig::validate`] accepts: 64 times the
/// paper's 64-PE machine.
pub const MAX_PES: usize = 4096;

/// Largest NoC hop latency and PE pipeline depth, in cycles, that
/// [`MachineConfig::validate`] accepts: far above the paper's 1-cycle hops
/// and 5-stage pipeline, and small enough that no cycle count overflows.
pub const MAX_LATENCY_CYCLES: u64 = 1024;

/// Why a [`MachineConfig`] cannot be simulated — the typed result of
/// [`MachineConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The H-tree radix is below 2.
    RadixBelowTwo {
        /// The configured radix.
        radix: usize,
    },
    /// The PE count is not `radix^L` for some `L ≥ 1` (the tree needs a
    /// router level), or it exceeds [`MAX_PES`].
    BadPeCount {
        /// The configured PE count.
        num_pes: usize,
        /// The configured radix.
        radix: usize,
    },
    /// A buffer, queue, register file or memory holds nothing.
    ZeroCapacity {
        /// The field, as named in [`MachineConfig`].
        field: &'static str,
    },
    /// A latency exceeds [`MAX_LATENCY_CYCLES`].
    LatencyTooLong {
        /// The field, as named in [`MachineConfig`].
        field: &'static str,
        /// The configured latency.
        cycles: u64,
    },
    /// The clock period is not a finite, positive number of nanoseconds.
    BadClock,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::RadixBelowTwo { radix } => write!(f, "tree radix {radix} is below 2"),
            ConfigError::BadPeCount { num_pes, radix } => write!(
                f,
                "{num_pes} PEs is not a power {radix}^L (L >= 1) of at most {MAX_PES}"
            ),
            ConfigError::ZeroCapacity { field } => write!(f, "{field} is 0"),
            ConfigError::LatencyTooLong { field, cycles } => {
                write!(f, "{field} of {cycles} cycles exceeds {MAX_LATENCY_CYCLES}")
            }
            ConfigError::BadClock => {
                f.write_str("the clock period is not a finite, positive number of nanoseconds")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Micro-architectural parameters of the simulated accelerator.
///
/// The defaults are the paper's Table II machine:
///
/// | parameter | value |
/// |---|---|
/// | Quantization | 16-bit fixed point |
/// | On-chip W/U/V memory per PE | 128 KB / 8 KB / 8 KB |
/// | Activation registers per PE | 64 |
/// | NoC flow control | packet buffer with credit |
/// | PEs | 64, 3-level H-tree |
/// | Clock | 2 ns (500 MHz) |
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineConfig {
    /// Network topology and flow control.
    pub noc: NocConfig,
    /// Depth of each PE's activation queue, in entries.
    pub act_queue_depth: usize,
    /// W memory per PE, bytes.
    pub w_mem_bytes: usize,
    /// U memory per PE, bytes.
    pub u_mem_bytes: usize,
    /// V memory per PE, bytes.
    pub v_mem_bytes: usize,
    /// Activation registers per PE (each of the two ping-pong files).
    pub act_regs_per_pe: usize,
    /// PE datapath pipeline depth (memory address, memory access,
    /// multiply, add, write back — paper §V.D).
    pub pe_pipeline_depth: u64,
    /// Clock period in nanoseconds (2 ns: the 128 KB SRAM access alone is
    /// more than 1.7 ns).
    pub clock_ns: f64,
}

impl MachineConfig {
    /// Number of processing elements.
    pub fn num_pes(&self) -> usize {
        self.noc.num_pes
    }

    /// Maximum supported activations per layer
    /// (`act_regs_per_pe × num_pes`, 4 K for the default machine).
    pub fn max_activations(&self) -> usize {
        self.act_regs_per_pe.saturating_mul(self.num_pes())
    }

    /// Peak throughput in GOP/s: each PE performs one multiply and one add
    /// per cycle (64 GOP/s for the default machine — Table IV).
    pub fn peak_gops(&self) -> f64 {
        self.num_pes() as f64 * 2.0 / self.clock_ns
    }

    /// The clock model: wall-clock time for a cycle count, microseconds
    /// (2 ns × cycles for the default machine). This is the latency number
    /// Table IV compares against the SIMD platforms' own clock models.
    pub fn time_us(&self, cycles: u64) -> f64 {
        cycles as f64 * self.clock_ns * 1e-3
    }

    /// Total on-chip W memory (8 MB for the default machine).
    pub fn total_w_mem_bytes(&self) -> usize {
        self.w_mem_bytes.saturating_mul(self.num_pes())
    }

    /// Largest weight-matrix shape `(rows, cols)` that fits the per-PE W
    /// memory with 16-bit weights.
    pub fn w_capacity_words_per_pe(&self) -> usize {
        self.w_mem_bytes / 2
    }

    /// Checks that the simulator can run this machine at all: a tree of
    /// radix ≥ 2 over `radix^L` PEs (`1 ≤ L`, at most [`MAX_PES`]), no
    /// zero-sized buffer, queue, register file or memory, latencies of at
    /// most [`MAX_LATENCY_CYCLES`], and a finite, positive clock period.
    ///
    /// # Errors
    ///
    /// The first violation as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let noc = &self.noc;
        if noc.radix < 2 {
            return Err(ConfigError::RadixBelowTwo { radix: noc.radix });
        }
        let mut pes = noc.radix;
        while pes < noc.num_pes {
            pes = pes.saturating_mul(noc.radix);
        }
        if pes != noc.num_pes || pes > MAX_PES {
            return Err(ConfigError::BadPeCount {
                num_pes: noc.num_pes,
                radix: noc.radix,
            });
        }
        for (field, size) in [
            ("noc.queue_capacity", noc.queue_capacity),
            ("act_queue_depth", self.act_queue_depth),
            ("act_regs_per_pe", self.act_regs_per_pe),
            ("w_mem_bytes", self.w_mem_bytes),
            ("u_mem_bytes", self.u_mem_bytes),
            ("v_mem_bytes", self.v_mem_bytes),
        ] {
            if size == 0 {
                return Err(ConfigError::ZeroCapacity { field });
            }
        }
        for (field, cycles) in [
            ("noc.hop_latency", noc.hop_latency),
            ("pe_pipeline_depth", self.pe_pipeline_depth),
        ] {
            if cycles > MAX_LATENCY_CYCLES {
                return Err(ConfigError::LatencyTooLong { field, cycles });
            }
        }
        if !(self.clock_ns.is_finite() && self.clock_ns > 0.0) {
            return Err(ConfigError::BadClock);
        }
        Ok(())
    }

    /// Checks that an `rows × cols` layer fits this machine, after
    /// [`validate`](Self::validate) checks the machine itself.
    ///
    /// # Errors
    ///
    /// The violated limit as a typed [`LayerFitError`] (the W-memory case
    /// carries the exact word counts, saturated at `usize::MAX`).
    pub fn validate_layer(&self, rows: usize, cols: usize) -> Result<(), LayerFitError> {
        self.validate().map_err(LayerFitError::Config)?;
        let n = self.num_pes();
        if cols > self.max_activations() {
            return Err(LayerFitError::TooManyInputs {
                cols,
                max: self.max_activations(),
            });
        }
        if rows > self.max_activations() {
            return Err(LayerFitError::TooManyOutputs {
                rows,
                max: self.max_activations(),
            });
        }
        // A product past `usize::MAX` overflows any memory: saturate it.
        let words = rows.div_ceil(n).saturating_mul(cols);
        if words > self.w_capacity_words_per_pe() {
            return Err(LayerFitError::WMemoryOverflow {
                words,
                capacity: self.w_capacity_words_per_pe(),
            });
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            noc: NocConfig::default(),
            act_queue_depth: 16,
            w_mem_bytes: 128 * 1024,
            u_mem_bytes: 8 * 1024,
            v_mem_bytes: 8 * 1024,
            act_regs_per_pe: 64,
            pe_pipeline_depth: 5,
            clock_ns: 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = MachineConfig::default();
        assert_eq!(c.num_pes(), 64);
        assert_eq!(c.w_mem_bytes, 128 * 1024);
        assert_eq!(c.u_mem_bytes, 8 * 1024);
        assert_eq!(c.v_mem_bytes, 8 * 1024);
        assert_eq!(c.act_regs_per_pe, 64);
        assert_eq!(c.total_w_mem_bytes(), 8 * 1024 * 1024); // 8 MB
        assert_eq!(c.max_activations(), 4096); // 4 K
        assert_eq!(c.peak_gops(), 64.0); // Table IV
    }

    #[test]
    fn clock_model_converts_cycles_to_microseconds() {
        let c = MachineConfig::default(); // 2 ns clock
        assert_eq!(c.time_us(0), 0.0);
        assert!((c.time_us(500) - 1.0).abs() < 1e-12);
        let fast = MachineConfig {
            clock_ns: 1.0,
            ..MachineConfig::default()
        };
        assert!((fast.time_us(500) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_layers_fit() {
        let c = MachineConfig::default();
        assert!(c.validate_layer(1000, 784).is_ok());
        assert!(c.validate_layer(1000, 1000).is_ok());
        assert!(c.validate_layer(10, 1000).is_ok());
    }

    #[test]
    fn w_words_past_usize_saturate_instead_of_overflowing() {
        let c = MachineConfig {
            act_regs_per_pe: usize::MAX,
            ..MachineConfig::default()
        };
        // 2^34 rows per PE × 2^40 columns overflows usize.
        assert_eq!(
            c.validate_layer(1 << 40, 1 << 40),
            Err(LayerFitError::WMemoryOverflow {
                words: usize::MAX,
                capacity: 64 * 1024
            })
        );
    }

    #[test]
    fn oversized_layers_are_rejected() {
        let c = MachineConfig::default();
        assert_eq!(
            c.validate_layer(5000, 1000),
            Err(LayerFitError::TooManyOutputs {
                rows: 5000,
                max: 4096
            })
        );
        assert_eq!(
            c.validate_layer(1000, 5000),
            Err(LayerFitError::TooManyInputs {
                cols: 5000,
                max: 4096
            })
        );
        // 4K×4K needs 64 rows/PE × 4096 cols = 256K words against 64K.
        assert_eq!(
            c.validate_layer(4096, 4096),
            Err(LayerFitError::WMemoryOverflow {
                words: 64 * 4096,
                capacity: 64 * 1024
            })
        );
    }

    fn rejected(cfg: MachineConfig) -> ConfigError {
        let e = cfg.validate().unwrap_err();
        assert_eq!(
            cfg.validate_layer(10, 10),
            Err(LayerFitError::Config(e)),
            "validate_layer checks the machine first"
        );
        e
    }

    #[test]
    fn default_machine_validates() {
        assert_eq!(MachineConfig::default().validate(), Ok(()));
    }

    #[test]
    fn radix_below_two_is_rejected() {
        for radix in [0, 1] {
            let cfg = MachineConfig {
                noc: NocConfig {
                    radix,
                    ..NocConfig::default()
                },
                ..MachineConfig::default()
            };
            assert_eq!(rejected(cfg), ConfigError::RadixBelowTwo { radix });
        }
    }

    #[test]
    fn pe_counts_must_be_a_bounded_power_of_the_radix() {
        for num_pes in [0, 1, 48, 65, 4 * MAX_PES, usize::MAX] {
            let cfg = MachineConfig {
                noc: NocConfig {
                    num_pes,
                    ..NocConfig::default()
                },
                ..MachineConfig::default()
            };
            assert_eq!(
                rejected(cfg),
                ConfigError::BadPeCount { num_pes, radix: 4 },
                "{num_pes} PEs"
            );
        }
        for (num_pes, radix) in [(4, 4), (16, 4), (256, 4), (64, 2), (64, 8), (MAX_PES, 2)] {
            let cfg = MachineConfig {
                noc: NocConfig {
                    num_pes,
                    radix,
                    ..NocConfig::default()
                },
                ..MachineConfig::default()
            };
            assert_eq!(cfg.validate(), Ok(()), "{num_pes} PEs at radix {radix}");
        }
    }

    #[test]
    fn zero_capacities_are_rejected() {
        let d = MachineConfig::default();
        let noc = NocConfig {
            queue_capacity: 0,
            ..NocConfig::default()
        };
        for (field, cfg) in [
            ("noc.queue_capacity", MachineConfig { noc, ..d }),
            (
                "act_queue_depth",
                MachineConfig {
                    act_queue_depth: 0,
                    ..d
                },
            ),
            (
                "act_regs_per_pe",
                MachineConfig {
                    act_regs_per_pe: 0,
                    ..d
                },
            ),
            (
                "w_mem_bytes",
                MachineConfig {
                    w_mem_bytes: 0,
                    ..d
                },
            ),
            (
                "u_mem_bytes",
                MachineConfig {
                    u_mem_bytes: 0,
                    ..d
                },
            ),
            (
                "v_mem_bytes",
                MachineConfig {
                    v_mem_bytes: 0,
                    ..d
                },
            ),
        ] {
            assert_eq!(rejected(cfg), ConfigError::ZeroCapacity { field });
        }
    }

    #[test]
    fn latencies_above_the_bound_are_rejected() {
        let d = MachineConfig::default();
        let cycles = MAX_LATENCY_CYCLES + 1;
        let noc = NocConfig {
            hop_latency: cycles,
            ..NocConfig::default()
        };
        assert_eq!(
            rejected(MachineConfig { noc, ..d }),
            ConfigError::LatencyTooLong {
                field: "noc.hop_latency",
                cycles
            }
        );
        let cfg = MachineConfig {
            pe_pipeline_depth: u64::MAX,
            ..d
        };
        assert_eq!(
            rejected(cfg),
            ConfigError::LatencyTooLong {
                field: "pe_pipeline_depth",
                cycles: u64::MAX
            }
        );
    }

    #[test]
    fn clocks_must_be_finite_and_positive() {
        for clock_ns in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let cfg = MachineConfig {
                clock_ns,
                ..MachineConfig::default()
            };
            assert_eq!(rejected(cfg), ConfigError::BadClock, "{clock_ns}");
        }
    }

    #[test]
    fn w_overflow_error_carries_the_exact_sizes() {
        let tiny = MachineConfig {
            w_mem_bytes: 1024,
            ..MachineConfig::default()
        };
        // 512 words per PE; 64 rows over 64 PEs = 1 row/PE × 784 cols.
        match tiny.validate_layer(64, 784) {
            Err(LayerFitError::WMemoryOverflow { words, capacity }) => {
                assert_eq!(words, 784);
                assert_eq!(capacity, 512);
            }
            other => panic!("expected WMemoryOverflow, got {other:?}"),
        }
        let msg = tiny.validate_layer(64, 784).unwrap_err().to_string();
        assert!(msg.contains("784") && msg.contains("512"), "{msg}");
    }
}
