//! One supervisor for every child process: `mp` ranks and `serve` jobs.
//!
//! A [`Supervisor`] owns the children it spawns; [`Supervisor::poll`]
//! reaps and classifies each exit exactly once ([`Exit`]), and callers
//! keep only their policy. The classification rests on the convention
//! `mp-worker` and `run-job` share: a child that fails deterministically
//! leaves its typed error in its error file, so a non-zero exit *without*
//! that file is a crash (a killed node, an injected [`FAULT_EXIT`]) worth
//! a respawn. On the lint boundary: it parses child exit states and error
//! files.

use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

/// Exit code of an injected fault (`mp --chaos`, `serve --chaos-die`):
/// not 1, the code of a typed failure, so a chaos kill reads as a crash.
pub const FAULT_EXIT: i32 = 13;

/// A respawn count or budget, for `mp` ranks and `serve` jobs alike.
pub type Respawns = u32;

/// Respawns allowed per key before the supervisor gives up on it.
pub const DEFAULT_MAX_RESPAWNS: Respawns = 3;

/// How long callers sleep between polls of their children.
pub const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// How one child's life ended.
#[derive(Debug)]
pub enum Exit {
    /// Exit status 0.
    Done,
    /// The child left its error file (trimmed text): a deterministic
    /// failure, never respawned.
    Failed(String),
    /// A non-zero exit with no error file. One respawn is counted against
    /// the key's budget; the caller respawns the key.
    Crashed(ExitStatus),
    /// As `Crashed`, but the key's respawn budget is spent.
    GaveUp(ExitStatus),
    /// Waiting on the child failed; it is killed and reaped.
    Lost(String),
}

struct Running<K> {
    key: K,
    child: Child,
    error_file: PathBuf,
}

/// Owns every spawned child, keyed by `K` (a rank, a job key).
pub struct Supervisor<K> {
    running: Vec<Running<K>>,
    respawns: HashMap<K, Respawns>,
    max_respawns: Respawns,
}

impl<K: Clone + Eq + Hash> Supervisor<K> {
    /// A supervisor allowing `max_respawns` respawns per key.
    pub fn new(max_respawns: Respawns) -> Self {
        Supervisor { running: Vec::new(), respawns: HashMap::new(), max_respawns }
    }

    /// Spawns `cmd` as `key`'s child. A stale `error_file` (an earlier
    /// run's, or this key's previous life's) is removed first, so a file
    /// found after the exit is this child's own.
    pub fn spawn(&mut self, key: K, cmd: &mut Command, error_file: PathBuf) -> io::Result<()> {
        match std::fs::remove_file(&error_file) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let child = cmd.spawn()?;
        self.running.push(Running { key, child, error_file });
        Ok(())
    }

    /// Children spawned and not yet reaped.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Respawns granted to `key` so far.
    pub fn respawns(&self, key: &K) -> Respawns {
        self.respawns.get(key).copied().unwrap_or(0)
    }

    /// Reaps every finished child and classifies its exit.
    pub fn poll(&mut self) -> Vec<(K, Exit)> {
        let mut exits = Vec::new();
        let (respawns, max) = (&mut self.respawns, self.max_respawns);
        self.running.retain_mut(|r| {
            let exit = match r.child.try_wait() {
                Ok(None) => return true,
                Ok(Some(status)) if status.success() => Exit::Done,
                Ok(Some(status)) => match read_error_file(r) {
                    Some(text) => Exit::Failed(text),
                    None => {
                        let n = respawns.entry(r.key.clone()).or_insert(0);
                        if *n < max {
                            *n += 1;
                            Exit::Crashed(status)
                        } else {
                            Exit::GaveUp(status)
                        }
                    }
                },
                Err(e) => {
                    reap(&mut r.child);
                    Exit::Lost(format!("wait failed: {e}"))
                }
            };
            exits.push((r.key.clone(), exit));
            false
        });
        exits
    }

    /// Waits up to `grace` for the remaining children to exit, then kills
    /// and reaps the stragglers. Returns the error-file text of each
    /// remaining child that left one.
    pub fn shutdown(&mut self, grace: Duration) -> Vec<(K, String)> {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline
            && self.running.iter_mut().any(|r| matches!(r.child.try_wait(), Ok(None)))
        {
            std::thread::sleep(POLL_INTERVAL);
        }
        let mut errors = Vec::new();
        for mut r in self.running.drain(..) {
            reap(&mut r.child);
            errors.extend(read_error_file(&r).map(|text| (r.key, text)));
        }
        errors
    }
}

/// No child outlives its supervisor, even on an early return.
impl<K> Drop for Supervisor<K> {
    fn drop(&mut self) {
        self.running.iter_mut().for_each(|r| reap(&mut r.child));
    }
}

fn reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn read_error_file<K>(r: &Running<K>) -> Option<String> {
    std::fs::read_to_string(&r.error_file).ok().map(|text| text.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "microslip-supervise-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    /// Polls until `sup` reaps its one child.
    fn only_exit<K: Clone + Eq + Hash>(sup: &mut Supervisor<K>) -> Exit {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut exits = sup.poll();
            if let Some((_, exit)) = exits.pop() {
                assert!(exits.is_empty(), "one child, one exit");
                return exit;
            }
            assert!(Instant::now() < deadline, "no child exited within 10 s");
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    #[test]
    fn clean_exit_is_done() {
        let dir = scratch("done");
        let mut sup = Supervisor::new(DEFAULT_MAX_RESPAWNS);
        sup.spawn(0usize, &mut sh("exit 0"), dir.join("a.error"))
            .unwrap();
        assert!(matches!(only_exit(&mut sup), Exit::Done));
        assert_eq!(sup.running(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_file_is_a_typed_failure_never_respawned() {
        let dir = scratch("failed");
        let err = dir.join("a.error");
        let script = format!("echo 'typed failure' > {}; exit 1", err.display());
        let mut sup = Supervisor::new(DEFAULT_MAX_RESPAWNS);
        sup.spawn("a", &mut sh(&script), err.clone()).unwrap();
        match only_exit(&mut sup) {
            Exit::Failed(text) => assert_eq!(text, "typed failure"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(sup.respawns(&"a"), 0, "a typed failure spends no respawn");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashes_respawn_per_key_until_the_budget_is_spent() {
        let dir = scratch("crash");
        let crash = || sh(&format!("exit {FAULT_EXIT}"));
        let err = |key: &str| dir.join(format!("{key}.error"));
        let mut sup = Supervisor::new(2);
        sup.spawn("a", &mut crash(), err("a")).unwrap();
        for attempt in 1..=2 {
            match only_exit(&mut sup) {
                Exit::Crashed(status) => assert_eq!(status.code(), Some(FAULT_EXIT)),
                other => panic!("attempt {attempt}: expected Crashed, got {other:?}"),
            }
            assert_eq!(sup.respawns(&"a"), attempt);
            sup.spawn("a", &mut crash(), err("a")).unwrap();
        }
        assert!(matches!(only_exit(&mut sup), Exit::GaveUp(_)));
        assert_eq!(sup.respawns(&"a"), 2);
        // Another key's budget is untouched by the first key's crashes.
        sup.spawn("b", &mut crash(), err("b")).unwrap();
        assert!(matches!(only_exit(&mut sup), Exit::Crashed(_)));
        assert_eq!(sup.respawns(&"b"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_reaps_a_sleeping_child_within_its_grace() {
        let dir = scratch("shutdown");
        let late = dir.join("late.error");
        let quick = dir.join("quick.error");
        let mut sup = Supervisor::new(DEFAULT_MAX_RESPAWNS);
        sup.spawn(
            "sleeper",
            &mut sh("exec sleep 30"),
            dir.join("sleeper.error"),
        )
        .unwrap();
        let script = format!("echo 'stopped on notice' > {}; exit 1", quick.display());
        sup.spawn("quick", &mut sh(&script), quick).unwrap();
        sup.spawn("late", &mut sh("exec sleep 30"), late.clone())
            .unwrap();
        std::fs::write(&late, "killed but typed").unwrap();
        let started = Instant::now();
        let mut errors = sup.shutdown(Duration::from_millis(300));
        let took = started.elapsed();
        assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
        assert!(
            took >= Duration::from_millis(300),
            "the grace must be honored: {took:?}"
        );
        assert_eq!(sup.running(), 0);
        errors.sort();
        assert_eq!(
            errors,
            vec![
                ("late", "killed but typed".to_string()),
                ("quick", "stopped on notice".into())
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
