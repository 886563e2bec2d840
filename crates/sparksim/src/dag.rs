//! Stage DAG representation.
//!
//! A job is a directed acyclic graph of stages. Each stage runs a number of
//! tasks, performs CPU work, optionally fetches shuffle data produced by its
//! parent stages, and produces output that either feeds later stages or is
//! returned to the driver.

use std::fmt;

/// One stage of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Stage index within the job (also its id).
    pub id: usize,
    /// Human-readable name (`map`, `sort-reduce`, `pagerank-iter-2`...).
    pub name: String,
    /// Parent stage ids whose output this stage consumes.
    pub(crate) parents: Vec<usize>,
    /// Number of tasks in the stage.
    pub(crate) tasks: u32,
    /// CPU work per task, in core-seconds on an uncontended core.
    pub(crate) cpu_seconds_per_task: f64,
    /// Total bytes fetched over the network from parent stages (shuffle read).
    pub(crate) shuffle_read_bytes: f64,
    /// Total bytes this stage materializes for its children (shuffle write).
    pub(crate) shuffle_write_bytes: f64,
    /// Peak memory needed per task, in bytes (drives spill behaviour).
    pub(crate) memory_per_task_bytes: f64,
    /// Skew factor: fraction of the stage's work concentrated on the single
    /// most loaded task slot (0 = perfectly balanced, 0.5 = half the work on
    /// one straggler). Joins use a high value.
    pub skew: f64,
}

impl StageSpec {
    /// Total CPU work of the stage in core-seconds.
    pub(crate) fn total_cpu_seconds(&self) -> f64 {
        self.tasks as f64 * self.cpu_seconds_per_task
    }

    /// True when this stage reads a shuffle.
    pub(crate) fn has_shuffle_input(&self) -> bool {
        self.shuffle_read_bytes > 0.0 && !self.parents.is_empty()
    }
}

impl fmt::Display for StageSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {} [{}]: {} tasks, {:.1} core-s, shuffle {:.1} MB",
            self.id,
            self.name,
            self.tasks,
            self.total_cpu_seconds(),
            self.shuffle_read_bytes / 1e6
        )
    }
}

/// Errors raised by DAG validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DagError {
    /// A stage references a parent with an id not smaller than its own.
    InvalidParent {
        /// The offending stage id.
        stage: usize,
        /// The invalid parent id it referenced.
        parent: usize,
    },
    /// The DAG has no stages.
    Empty,
    /// A stage has zero tasks.
    NoTasks(usize),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::InvalidParent { stage, parent } => {
                write!(f, "stage {stage} references invalid parent {parent}")
            }
            DagError::Empty => write!(f, "job has no stages"),
            DagError::NoTasks(s) => write!(f, "stage {s} has zero tasks"),
        }
    }
}

impl std::error::Error for DagError {}

/// A whole job: its stages in topological order plus driver-side work.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDag {
    /// Stages, listed in topological (execution) order: a stage's parents
    /// always have smaller ids.
    pub stages: Vec<StageSpec>,
    /// Bytes of result data collected onto the driver at the end of the job.
    pub(crate) result_bytes_to_driver: f64,
    /// CPU work performed by the driver itself (planning + final aggregation),
    /// in core-seconds.
    pub(crate) driver_cpu_seconds: f64,
    /// Fixed startup overhead (container start, JVM warmup) in seconds.
    pub startup_seconds: f64,
}

impl JobDag {
    /// Validate structural invariants: non-empty, topological parent order,
    /// every stage has at least one task.
    pub(crate) fn validate(&self) -> Result<(), DagError> {
        if self.stages.is_empty() {
            return Err(DagError::Empty);
        }
        for (i, stage) in self.stages.iter().enumerate() {
            if stage.tasks == 0 {
                return Err(DagError::NoTasks(i));
            }
            for &p in &stage.parents {
                if p >= i {
                    return Err(DagError::InvalidParent {
                        stage: i,
                        parent: p,
                    });
                }
            }
        }
        Ok(())
    }

    /// Total CPU work across all stages, in core-seconds.
    pub fn total_cpu_seconds(&self) -> f64 {
        self.stages.iter().map(StageSpec::total_cpu_seconds).sum()
    }

    /// Total bytes moved over the network for shuffles.
    pub fn total_shuffle_bytes(&self) -> f64 {
        self.stages.iter().map(|s| s.shuffle_read_bytes).sum()
    }

    /// Peak per-task memory across stages.
    pub fn peak_memory_per_task(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.memory_per_task_bytes)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(id: usize, parents: Vec<usize>, tasks: u32) -> StageSpec {
        StageSpec {
            id,
            name: format!("s{id}"),
            parents,
            tasks,
            cpu_seconds_per_task: 2.0,
            shuffle_read_bytes: if id > 0 { 1e6 } else { 0.0 },
            shuffle_write_bytes: 1e6,
            memory_per_task_bytes: 64e6,
            skew: 0.0,
        }
    }

    fn dag() -> JobDag {
        JobDag {
            stages: vec![stage(0, vec![], 8), stage(1, vec![0], 4)],
            result_bytes_to_driver: 1e5,
            driver_cpu_seconds: 1.0,
            startup_seconds: 3.0,
        }
    }

    #[test]
    fn valid_dag_passes() {
        assert!(dag().validate().is_ok());
    }

    #[test]
    fn empty_dag_is_invalid() {
        let d = JobDag {
            stages: vec![],
            result_bytes_to_driver: 0.0,
            driver_cpu_seconds: 0.0,
            startup_seconds: 0.0,
        };
        assert_eq!(d.validate(), Err(DagError::Empty));
    }

    #[test]
    fn forward_or_self_parent_is_invalid() {
        let mut d = dag();
        d.stages[0].parents = vec![1];
        assert_eq!(
            d.validate(),
            Err(DagError::InvalidParent {
                stage: 0,
                parent: 1
            })
        );
        let mut d2 = dag();
        d2.stages[1].parents = vec![1];
        assert!(matches!(d2.validate(), Err(DagError::InvalidParent { .. })));
    }

    #[test]
    fn zero_task_stage_is_invalid() {
        let mut d = dag();
        d.stages[1].tasks = 0;
        assert_eq!(d.validate(), Err(DagError::NoTasks(1)));
    }

    #[test]
    fn aggregates() {
        let d = dag();
        assert_eq!(d.stages.len(), 2);
        assert_eq!(d.total_cpu_seconds(), 8.0 * 2.0 + 4.0 * 2.0);
        assert_eq!(d.total_shuffle_bytes(), 1e6);
        assert_eq!(d.peak_memory_per_task(), 64e6);
        assert!(d.stages[1].has_shuffle_input());
        assert!(!d.stages[0].has_shuffle_input());
        assert_eq!(d.stages[0].total_cpu_seconds(), 16.0);
    }

    #[test]
    fn display_impls() {
        let s = stage(1, vec![0], 4);
        let text = format!("{s}");
        assert!(text.contains("stage 1"));
        assert!(text.contains("4 tasks"));
        assert!(format!("{}", DagError::Empty).contains("no stages"));
        assert!(format!("{}", DagError::NoTasks(3)).contains("stage 3"));
        assert!(format!(
            "{}",
            DagError::InvalidParent {
                stage: 2,
                parent: 5
            }
        )
        .contains("parent 5"));
    }
}
