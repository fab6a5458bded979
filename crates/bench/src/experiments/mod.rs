//! One module per paper table/figure, plus the design-choice ablations
//! and the serving studies (beyond the paper): worker scaling, the
//! virtual-time latency-vs-load simulation, and model-parallel
//! partitioning of oversized networks.

pub mod ablations;
pub mod analyze;
pub mod batching;
pub mod fig6;
pub mod fig7;
pub mod fleet;
pub mod frontend;
pub mod kernel;
pub mod obs;
pub mod partition;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
