//! Kernel teams: the CPUs a thread leaves idle share its weight rows.
//!
//! A [`KernelTeam`] installed on a thread lets [`super::matmul_into`]
//! and [`super::matmul_add_into`] called *from that thread* hand every
//! team thread one contiguous range of whole 4-row blocks of the
//! weight matrix, each written in place into the lane-striped output
//! ([`split_rows`]).  Every `(row, lane)` dot keeps its operands, its
//! tile or quad form and its reduction order, so a split product is
//! bit-identical to the serial one; only which core streams which rows
//! changes.  The serving engine installs one team per worker thread
//! (`max(1, CPUs in the worker's affinity mask / workers)` threads);
//! every other thread has none and runs serially.
//!
//! The installing thread takes the first range itself.  The other
//! `threads - 1` helpers are spawned on the first product that splits,
//! so installing a team costs nothing until it is used.  After each
//! range a helper spins for 200 µs waiting for the next product (the
//! elementwise work between a step's gate products is shorter than
//! that), then parks until one arrives, so an idle team costs no CPU.
//! Dropping the [`KernelTeam`] stops and joins its helpers.
//!
//! A panic inside a helper's range is caught there and resumed on the
//! installing thread once every range of the product has finished, so
//! it reaches the caller exactly as a panic in its own range would, and
//! the helper lives on for the next product.

use std::any::Any;
use std::cell::{RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use super::body::TILE;

/// The smallest product, `rows × cols × lanes` multiply-adds, that is
/// split across a team; anything smaller runs on the calling thread.
///
/// A split moves operands between cores: the helper reads lane inputs
/// the worker just wrote, the worker then reads the rows the helper
/// wrote, and a helper idle for more than its spin must be woken.  The
/// `kernel/*_ds2_team` rungs of `crates/bench` pay that round trip as
/// the engine does (every placement writes its lane input on the
/// calling thread, then reads the whole output back; 2-vCPU Xeon,
/// AVX-512, team of two, 4 runs): the 400 × 400 × 8 DeepSpeech2-0.5
/// gate `matmul_add_8l_ds2` reads 1.45–2.05x its serial rung and its
/// 64-lane hoist 1.63–1.80x (one outlier 0.70x).  The IMDB products
/// lose when split: `batch_memo_hi` `steps_per_s` read 0.74–0.93x of
/// the serial parent with this cutoff at 131,072 (6 runs) and
/// 0.79–0.91x at 262,144, where only its 524,288 hoists split (3 runs),
/// against 0.85–1.01x with nothing of it split (7 runs).  So the cutoff
/// sits above those products and below the DeepSpeech2-0.5 gate at
/// eight lanes (1,280,000), which every full-lane `batch_exact` and
/// `batch_memo_lo` product reaches.
pub const SPLIT_MIN_WORK: usize = 1 << 20;

/// How long a helper spins for the next product before it parks.
const SPIN: Duration = Duration::from_micros(200);

/// Spins the installing thread waits for its helpers before it starts
/// yielding its CPU to them.
const WAIT_SPINS: u32 = 1 << 16;

thread_local! {
    static TEAM: RefCell<Option<Team>> = const { RefCell::new(None) };
}

/// The calling thread's kernel team, for as long as this guard lives.
///
/// `threads` counts the calling thread: `0` and `1` mean no helpers,
/// so every product runs serially.  A thread holds at most one team.
#[derive(Debug)]
pub struct KernelTeam {
    /// The team lives in the installing thread's local storage.
    _on_this_thread: PhantomData<*const ()>,
}

impl KernelTeam {
    /// Installs a team of `threads` threads on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread already holds a team.
    pub fn install(threads: usize) -> KernelTeam {
        TEAM.with(|team| {
            let mut team = team.borrow_mut();
            assert!(team.is_none(), "a thread holds at most one kernel team");
            *team = Some(Team {
                threads,
                crew: None,
            });
        });
        KernelTeam {
            _on_this_thread: PhantomData,
        }
    }
}

impl Drop for KernelTeam {
    fn drop(&mut self) {
        // Taken out before it drops, so the helpers are joined with the
        // thread-local free again.
        let team = TEAM.with(|team| team.borrow_mut().take());
        drop(team);
    }
}

/// Runs `part` over `0..rows` split into contiguous ranges of whole
/// 4-row blocks, one per thread of the calling thread's team, the
/// last range taking the `rows % 4` rows left over, and returns when
/// every range has run.  `work` is the product's size in multiply-adds:
/// below [`SPLIT_MIN_WORK`], with fewer than two blocks, without a team
/// or from inside a range, `part(0..rows)` runs on the calling thread.
///
/// # Panics
///
/// Resumes the first panic of any range once all ranges have finished.
pub fn split_rows(rows: usize, work: usize, part: &(dyn Fn(Range<usize>) + Sync)) {
    TEAM.with(|team| {
        // Borrowed until every range has run, so a range that splits
        // again finds it taken and runs serially.
        let mut team = team.try_borrow_mut();
        match team.as_deref_mut() {
            Ok(Some(team)) if team.threads > 1 && work >= SPLIT_MIN_WORK && rows >= 2 * TILE => {
                team.split(rows, part)
            }
            _ => part(0..rows),
        }
    })
}

/// A thread's team: its size, and its helpers once a product split.
struct Team {
    threads: usize,
    crew: Option<Crew>,
}

impl Team {
    fn split(&mut self, rows: usize, part: &(dyn Fn(Range<usize>) + Sync)) {
        let crew = (self.crew).get_or_insert_with(|| Crew::spawn(self.threads - 1));
        let blocks = rows / TILE;
        let parts = (crew.helpers.len() + 1).min(blocks);
        if parts < 2 {
            return part(0..rows);
        }
        let range = |p: usize| {
            let end = if p + 1 == parts {
                rows
            } else {
                (p + 1) * blocks / parts * TILE
            };
            p * blocks / parts * TILE..end
        };
        if let Err(payload) = crew.run(parts, &|p| part(range(p))) {
            panic::resume_unwind(payload);
        }
    }
}

/// The product being run: a borrowed job whose lifetime `Crew::run`
/// erases and then outlives by waiting for every helper.
#[derive(Clone, Copy)]
struct Job {
    run: *const (dyn Fn(usize) + Sync),
    parts: usize,
}

/// What the installing thread shares with its helpers.  What it writes
/// shares the first cache line and each helper writes a line of its
/// own, so a product costs one line transfer each way per helper.
#[repr(C, align(64))]
struct Shared {
    /// Bumped once per product; a helper runs each value once.
    epoch: AtomicUsize,
    stop: AtomicBool,
    /// Written by the installing thread only once every helper is
    /// `done` with the current epoch, read by a helper only between
    /// seeing a new epoch and marking it `done`.
    job: UnsafeCell<Job>,
    /// The last epoch each helper finished.
    done: Box<[Line<AtomicUsize>]>,
    /// The first panic of a helper's range in the current product.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A value alone on its cache line.
#[repr(align(64))]
struct Line<T>(T);

// SAFETY: `job` is the only field that is not `Sync`; the epoch / done
// hand-off above orders every access to it, and the closure it points
// to is `Sync`.
unsafe impl Sync for Shared {}
// SAFETY: as above; the pointee of `job` outlives every use of it.
unsafe impl Send for Shared {}

/// The helpers of one team.
struct Crew {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Crew {
    /// Spawns up to `helpers` threads; a team whose spawn fails runs
    /// with the helpers it got.
    fn spawn(helpers: usize) -> Crew {
        fn noop(_: usize) {}
        let shared = Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            job: UnsafeCell::new(Job {
                run: &noop,
                parts: 0,
            }),
            done: (0..helpers).map(|_| Line(AtomicUsize::new(0))).collect(),
            panic: Mutex::new(None),
        });
        let helpers = (1..=helpers)
            .map_while(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("nfm-team-{index}"))
                    .spawn(move || helper(&shared, index))
                    .ok()
            })
            .collect();
        Crew { shared, helpers }
    }

    /// Runs `job(0)` here and `job(1..parts)` on the helpers, and
    /// returns once all have finished, with the first panic among them.
    fn run(&self, parts: usize, job: &(dyn Fn(usize) + Sync)) -> Result<(), Box<dyn Any + Send>> {
        let shared = &*self.shared;
        // SAFETY: only the lifetime is erased.  This call does not
        // return before every helper is done with the pointer.
        let run: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(job) };
        // SAFETY: every helper is done with the previous epoch (it was
        // waited for), so none reads `job` now.
        unsafe { *shared.job.get() = Job { run, parts } };
        // Only this thread writes the epoch.
        let epoch = shared.epoch.load(Ordering::Relaxed) + 1;
        shared.epoch.store(epoch, Ordering::Release);
        for helper in &self.helpers {
            helper.thread().unpark();
        }
        let own = panic::catch_unwind(AssertUnwindSafe(|| job(0)));
        let mut spins = 0u32;
        for done in &shared.done[..self.helpers.len()] {
            while done.0.load(Ordering::Acquire) != epoch {
                if spins < WAIT_SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
        }
        let theirs = lock(&shared.panic).take();
        own.and(theirs.map_or(Ok(()), Err))
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for helper in self.helpers.drain(..) {
            helper.thread().unpark();
            let _ = helper.join();
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A helper: wait for a product, run range `index` of it, repeat until
/// the team drops.
fn helper(shared: &Shared, index: usize) {
    let mut seen = 0;
    while let Some(epoch) = next_epoch(shared, seen) {
        seen = epoch;
        // SAFETY: a new epoch was published after `job` was written,
        // and it is marked done only after this read.
        let Job { run, parts } = unsafe { *shared.job.get() };
        if index < parts {
            // SAFETY: the installing thread keeps the closure alive
            // until this helper marks the epoch done.
            let ran = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*run)(index) }));
            if let Err(payload) = ran {
                lock(&shared.panic).get_or_insert(payload);
            }
        }
        shared.done[index - 1].0.store(epoch, Ordering::Release);
    }
}

/// Waits for an epoch other than `seen`, spinning for [`SPIN`] and then
/// parking; `None` once the team stops.
fn next_epoch(shared: &Shared, seen: usize) -> Option<usize> {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if shared.stop.load(Ordering::Acquire) {
                return None;
            }
            let epoch = shared.epoch.load(Ordering::Acquire);
            if epoch != seen {
                return Some(epoch);
            }
            std::hint::spin_loop();
        }
        // A stale unpark only costs one more round.
        if start.elapsed() >= SPIN {
            thread::park();
        }
    }
}
