//! # timedrl-data
//!
//! Data infrastructure for the TimeDRL reproduction: synthetic generators
//! matching the statistics of the paper's 11 benchmark datasets (Tables I
//! and II), sliding-window extraction with the 60/20/20 chronological
//! split, instance normalization and patching (Eq. 1), and the six
//! augmentation families of the Table VI ablation.

#![warn(missing_docs)]

pub mod augment;
pub mod csv;
pub mod dataset;
pub mod patch;
pub mod pipeline;
pub mod shard;
pub mod synth;
pub mod ts_format;
pub mod window;

pub use augment::Augmentation;
pub use csv::{load_forecast_csv, parse_csv_series, CsvError};
pub use dataset::{
    gather_batch, split_index, BatchIndices, ClassifyDataset, DataError, ForecastDataset,
};
pub use patch::{patch_batch, patch_sample, unpatch_sample, PatchConfig};
pub use pipeline::{
    instance_normalize, InstanceStats, PipelineError, Standardizer, INSTANCE_NORM_EPS,
};
pub use shard::{read_shard, shard_path, ShardError, ShardMeta, ShardWriter, ShardedDataset};
pub use ts_format::{load_ts, parse_ts, TsFormatError};
pub use window::{chrono_split, sliding_windows, ChronoSplit, WindowedForecast};
