//! A DAG workflow engine — the Argo Workflows substrate of Unit 3.
//!
//! The lab builds "a simplified ML pipeline using Argo Workflows …
//! including model registration and promotion" (§3.3). This engine runs a
//! directed acyclic graph of named tasks with dependencies, executing each
//! **wave** of ready tasks in parallel on real threads, with per-task
//! retry budgets. A task whose dependency failed is skipped, and the
//! result records every task's status, attempt count, and execution wave.
//!
//! Tasks communicate through a shared key-value context (`Arc<RwLock<…>>`),
//! the way Argo tasks pass parameters/artifacts.

use opml_simkernel::SimTime;
use opml_telemetry::Telemetry;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Shared blackboard for inter-task values.
#[derive(Debug, Clone, Default)]
pub struct Context {
    values: Arc<RwLock<HashMap<String, String>>>,
}

impl Context {
    /// Empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a value.
    pub fn set(&self, key: &str, value: impl Into<String>) {
        self.values.write().insert(key.to_string(), value.into());
    }

    /// Fetch a value.
    pub fn get(&self, key: &str) -> Option<String> {
        self.values.read().get(key).cloned()
    }

    /// Fetch and parse a value.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }
}

/// What a task does: runs against the context, fails with a message.
pub type TaskFn = Box<dyn Fn(&Context) -> Result<(), String> + Send + Sync>;

struct Task {
    name: String,
    deps: Vec<usize>,
    retries: u32,
    run: TaskFn,
}

/// Terminal status of one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStatus {
    /// Ran to success (possibly after retries).
    Succeeded,
    /// Exhausted its retry budget; last error attached.
    Failed(String),
    /// Not run because a dependency failed or was skipped.
    Skipped,
}

/// Per-task record in the workflow result.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// Task name.
    pub name: String,
    /// Final status.
    pub status: TaskStatus,
    /// Attempts actually made (0 for skipped tasks).
    pub attempts: u32,
    /// Parallel wave index the task ran in (`None` for skipped).
    pub wave: Option<usize>,
}

/// Result of one workflow execution.
#[derive(Debug, Clone)]
pub struct WorkflowResult {
    /// Per-task results, in definition order.
    pub tasks: Vec<TaskResult>,
    /// Number of parallel waves executed.
    pub waves: usize,
}

impl WorkflowResult {
    /// Whether every task succeeded.
    pub fn succeeded(&self) -> bool {
        self.tasks.iter().all(|t| t.status == TaskStatus::Succeeded)
    }

    /// Find a task's result by name.
    pub fn task(&self, name: &str) -> Option<&TaskResult> {
        self.tasks.iter().find(|t| t.name == name)
    }
}

/// Errors detected when building/validating a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// Two tasks share a name.
    DuplicateTask(String),
    /// A dependency references an unknown task.
    UnknownDependency {
        /// Task declaring the dependency.
        task: String,
        /// The missing dependency name.
        dep: String,
    },
    /// The graph has a cycle.
    Cycle,
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::DuplicateTask(n) => write!(f, "duplicate task name: {n}"),
            WorkflowError::UnknownDependency { task, dep } => {
                write!(f, "task {task} depends on unknown task {dep}")
            }
            WorkflowError::Cycle => write!(f, "workflow graph has a cycle"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Builder/executor for a DAG of tasks.
#[derive(Default)]
pub struct Workflow {
    tasks: Vec<Task>,
}

impl fmt::Debug for Workflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workflow")
            .field(
                "tasks",
                &self.tasks.iter().map(|t| &t.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Workflow {
    /// Empty workflow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task with named dependencies and a retry budget
    /// (`retries = 0` means a single attempt).
    pub fn add_task(
        &mut self,
        name: &str,
        deps: &[&str],
        retries: u32,
        run: impl Fn(&Context) -> Result<(), String> + Send + Sync + 'static,
    ) -> Result<(), WorkflowError> {
        if self.tasks.iter().any(|t| t.name == name) {
            return Err(WorkflowError::DuplicateTask(name.to_string()));
        }
        let mut dep_idx = Vec::with_capacity(deps.len());
        for d in deps {
            let idx = self
                .tasks
                .iter()
                .position(|t| t.name == *d)
                .ok_or_else(|| WorkflowError::UnknownDependency {
                    task: name.to_string(),
                    dep: d.to_string(),
                })?;
            dep_idx.push(idx);
        }
        self.tasks.push(Task {
            name: name.to_string(),
            deps: dep_idx,
            retries,
            run: Box::new(run),
        });
        Ok(())
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True iff no tasks are defined.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Execute the DAG against a context.
    ///
    /// Because `add_task` only accepts dependencies on *already-added*
    /// tasks, the graph is acyclic by construction; waves are computed by
    /// repeated readiness sweeps.
    pub fn run(&self, ctx: &Context) -> WorkflowResult {
        self.run_traced(ctx, SimTime::ZERO, &Telemetry::disabled())
    }

    /// Execute the DAG like [`Workflow::run`], emitting one
    /// `workflow.wave` span per parallel wave and one `workflow.task`
    /// instant per executed task.
    ///
    /// The engine has no clock of its own, so every event is stamped with
    /// the caller's simulated time `at`. Task events are emitted *after*
    /// the wave's threads have joined, in ready-index (definition) order —
    /// thread completion order never leaks into the trace.
    pub fn run_traced(&self, ctx: &Context, at: SimTime, telemetry: &Telemetry) -> WorkflowResult {
        let n = self.tasks.len();
        let mut status: Vec<Option<TaskStatus>> = vec![None; n];
        let mut attempts = vec![0u32; n];
        let mut wave_of: Vec<Option<usize>> = vec![None; n];
        let mut wave = 0usize;

        loop {
            // Mark skips: any unresolved task with a failed/skipped dep.
            let mut changed = true;
            while changed {
                changed = false;
                for i in 0..n {
                    if status[i].is_some() {
                        continue;
                    }
                    let dead = self.tasks[i].deps.iter().any(|&d| {
                        matches!(
                            status[d],
                            Some(TaskStatus::Failed(_)) | Some(TaskStatus::Skipped)
                        )
                    });
                    if dead {
                        status[i] = Some(TaskStatus::Skipped);
                        changed = true;
                    }
                }
            }
            // Ready set: unresolved tasks whose deps all succeeded.
            let ready: Vec<usize> = (0..n)
                .filter(|&i| status[i].is_none())
                .filter(|&i| {
                    self.tasks[i]
                        .deps
                        .iter()
                        .all(|&d| status[d] == Some(TaskStatus::Succeeded))
                })
                .collect();
            if ready.is_empty() {
                break;
            }
            // Execute the wave in parallel; retries happen inside the task
            // thread.
            let results: Vec<(TaskStatus, u32)> = std::thread::scope(|s| {
                let handles: Vec<_> = ready
                    .iter()
                    .map(|&i| {
                        let task = &self.tasks[i];
                        s.spawn(move || {
                            let budget = task.retries + 1;
                            let mut last_err = String::new();
                            for attempt in 1..=budget {
                                match (task.run)(ctx) {
                                    Ok(()) => return (TaskStatus::Succeeded, attempt),
                                    Err(e) => last_err = e,
                                }
                            }
                            (TaskStatus::Failed(last_err), budget)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("task panicked"))
                    .collect()
            });
            let ready_count = ready.len();
            let span = telemetry.span(at, "workflow.wave", || {
                vec![("wave", wave.into()), ("tasks", ready_count.into())]
            });
            for (&i, (st, att)) in ready.iter().zip(results) {
                telemetry.instant(at, "workflow.task", || {
                    vec![
                        ("name", self.tasks[i].name.clone().into()),
                        ("wave", wave.into()),
                        ("attempts", att.into()),
                        (
                            "status",
                            match &st {
                                TaskStatus::Succeeded => "succeeded".into(),
                                TaskStatus::Failed(_) => "failed".into(),
                                TaskStatus::Skipped => "skipped".into(),
                            },
                        ),
                    ]
                });
                telemetry.counter_add(
                    match &st {
                        TaskStatus::Succeeded => "workflow.tasks_succeeded",
                        TaskStatus::Failed(_) => "workflow.tasks_failed",
                        TaskStatus::Skipped => "workflow.tasks_skipped",
                    },
                    1,
                );
                if att > 1 {
                    telemetry.counter_add("workflow.task_retries", u64::from(att) - 1);
                }
                status[i] = Some(st);
                attempts[i] = att;
                wave_of[i] = Some(wave);
            }
            span.end(at);
            wave += 1;
        }

        WorkflowResult {
            tasks: self
                .tasks
                .iter()
                .enumerate()
                .map(|(i, t)| TaskResult {
                    name: t.name.clone(),
                    status: status[i].clone().unwrap_or(TaskStatus::Skipped),
                    attempts: attempts[i],
                    wave: wave_of[i],
                })
                .collect(),
            waves: wave,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn linear_pipeline_runs_in_order() {
        let mut wf = Workflow::new();
        wf.add_task("extract", &[], 0, |ctx| {
            ctx.set("rows", "100");
            Ok(())
        })
        .unwrap();
        wf.add_task("train", &["extract"], 0, |ctx| {
            let rows: u32 = ctx.get("rows").ok_or("missing rows")?.parse().unwrap();
            ctx.set("acc", format!("{}", 0.5 + rows as f64 / 1000.0));
            Ok(())
        })
        .unwrap();
        wf.add_task("register", &["train"], 0, |ctx| {
            if ctx.get_f64("acc").unwrap_or(0.0) > 0.55 {
                Ok(())
            } else {
                Err("accuracy gate".into())
            }
        })
        .unwrap();
        let ctx = Context::new();
        let result = wf.run(&ctx);
        assert!(result.succeeded());
        assert_eq!(result.waves, 3);
        assert_eq!(result.task("extract").unwrap().wave, Some(0));
        assert_eq!(result.task("register").unwrap().wave, Some(2));
    }

    #[test]
    fn independent_tasks_share_a_wave() {
        let mut wf = Workflow::new();
        for name in ["a", "b", "c"] {
            wf.add_task(name, &[], 0, |_| Ok(())).unwrap();
        }
        wf.add_task("join", &["a", "b", "c"], 0, |_| Ok(()))
            .unwrap();
        let result = wf.run(&Context::new());
        assert_eq!(result.waves, 2);
        for name in ["a", "b", "c"] {
            assert_eq!(result.task(name).unwrap().wave, Some(0));
        }
        assert_eq!(result.task("join").unwrap().wave, Some(1));
    }

    #[test]
    fn failure_skips_dependents_only() {
        let mut wf = Workflow::new();
        wf.add_task("ok", &[], 0, |_| Ok(())).unwrap();
        wf.add_task("boom", &[], 0, |_| Err("kaput".into()))
            .unwrap();
        wf.add_task("after_boom", &["boom"], 0, |_| Ok(())).unwrap();
        wf.add_task("after_ok", &["ok"], 0, |_| Ok(())).unwrap();
        let result = wf.run(&Context::new());
        assert!(!result.succeeded());
        assert_eq!(
            result.task("boom").unwrap().status,
            TaskStatus::Failed("kaput".into())
        );
        assert_eq!(
            result.task("after_boom").unwrap().status,
            TaskStatus::Skipped
        );
        assert_eq!(
            result.task("after_ok").unwrap().status,
            TaskStatus::Succeeded
        );
        assert_eq!(result.task("after_boom").unwrap().attempts, 0);
    }

    #[test]
    fn retries_until_budget() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let mut wf = Workflow::new();
        wf.add_task("flaky", &[], 3, |_| {
            // Succeeds on the third attempt.
            if CALLS.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".into())
            } else {
                Ok(())
            }
        })
        .unwrap();
        let result = wf.run(&Context::new());
        assert!(result.succeeded());
        assert_eq!(result.task("flaky").unwrap().attempts, 3);
    }

    #[test]
    fn retry_budget_exhausted() {
        let mut wf = Workflow::new();
        wf.add_task("hopeless", &[], 2, |_| Err("always".into()))
            .unwrap();
        let result = wf.run(&Context::new());
        assert_eq!(result.task("hopeless").unwrap().attempts, 3);
        assert!(matches!(
            result.task("hopeless").unwrap().status,
            TaskStatus::Failed(_)
        ));
    }

    #[test]
    fn build_validation() {
        let mut wf = Workflow::new();
        wf.add_task("a", &[], 0, |_| Ok(())).unwrap();
        assert_eq!(
            wf.add_task("a", &[], 0, |_| Ok(())).unwrap_err(),
            WorkflowError::DuplicateTask("a".into())
        );
        assert_eq!(
            wf.add_task("b", &["ghost"], 0, |_| Ok(())).unwrap_err(),
            WorkflowError::UnknownDependency {
                task: "b".into(),
                dep: "ghost".into()
            }
        );
    }

    #[test]
    fn context_is_shared_across_waves() {
        let mut wf = Workflow::new();
        for i in 0..4 {
            let key = format!("v{i}");
            wf.add_task(&key.clone(), &[], 0, move |ctx| {
                ctx.set(&key, "1");
                Ok(())
            })
            .unwrap();
        }
        wf.add_task("sum", &["v0", "v1", "v2", "v3"], 0, |ctx| {
            let total: u32 = (0..4)
                .map(|i| ctx.get(&format!("v{i}")).unwrap().parse::<u32>().unwrap())
                .sum();
            ctx.set("total", total.to_string());
            Ok(())
        })
        .unwrap();
        let ctx = Context::new();
        assert!(wf.run(&ctx).succeeded());
        assert_eq!(ctx.get("total").unwrap(), "4");
    }

    #[test]
    fn traced_run_emits_waves_and_tasks_in_definition_order() {
        let mut wf = Workflow::new();
        for name in ["a", "b", "c"] {
            wf.add_task(name, &[], 0, |_| Ok(())).unwrap();
        }
        wf.add_task("join", &["a", "b", "c"], 0, |_| Ok(()))
            .unwrap();
        let telemetry = Telemetry::recording();
        let result = wf.run_traced(&Context::new(), SimTime(300), &telemetry);
        assert!(result.succeeded());
        // Task events come out in definition order within each wave, never
        // in thread completion order.
        let task_names: Vec<String> = telemetry
            .events()
            .iter()
            .filter(|e| e.name == "workflow.task")
            .map(|e| {
                e.attr("name")
                    .and_then(opml_telemetry::AttrValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(task_names, vec!["a", "b", "c", "join"]);
        let waves = telemetry
            .events()
            .iter()
            .filter(|e| e.name == "workflow.wave" && e.phase == opml_telemetry::EventPhase::Begin)
            .count();
        assert_eq!(waves, 2);
        assert_eq!(
            telemetry.metrics_snapshot().counters["workflow.tasks_succeeded"],
            4
        );
    }

    #[test]
    fn empty_workflow() {
        let wf = Workflow::new();
        let result = wf.run(&Context::new());
        assert!(result.succeeded());
        assert_eq!(result.waves, 0);
        assert!(wf.is_empty());
    }
}
