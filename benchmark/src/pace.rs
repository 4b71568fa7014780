//! Speed-normalised timing.
//!
//! The machines this benchmark runs on change speed under it: a spin loop
//! here runs ±25 % apart in phases of seconds to minutes, and at bad times
//! identical work takes 1.4 s once and 4 s the next time. CPU time moves
//! with wall time, so it is the core that slows (a busy SMT sibling, a
//! neighbour on the host), not pre-emption. No median over a 12-second
//! run survives that; two commits measured an hour apart would differ by
//! more than most optimisations gain.
//!
//! So every timed interval is cut into slices of under a second, and a
//! small **reference kernel** — the harness's own code, sharing nothing
//! with the program under test — runs between slices. A slice's
//! normalised time is its wall time × (the kernel's nominal time ÷ the
//! mean of the kernel's times just before and just after the slice):
//! seconds *at nominal machine speed*. Replaying recorded slice times,
//! this cut the spread of 12-second medians from 22–29 % to 3–4 % at the
//! machine's worst and from 9–11 % to 4–5 % at its usual.
//!
//! Raw wall times are kept beside the normalised ones and printed, and
//! `bench.machine_speed` says how far from nominal the run was.

use crate::span::Tracer;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// What one run of the reference kernel takes on the machine the workloads
/// were sized on, at its quiet speed (the fastest of some hundred runs).
/// It only fixes the unit: every normalised time is scaled by it alike, so
/// comparisons between commits do not depend on it.
pub const NOMINAL_REFERENCE_S: f64 = 0.035;

/// Slices shorter than this are merged with the next: the kernel costs
/// ~35 ms, and below a quarter second its own jitter would dominate.
const MIN_SLICE_S: f64 = 0.25;

/// Entries of the pointer-chase ring: 8 MB, past the private caches, so
/// the kernel feels memory contention as the workloads do. It is part of
/// the measuring child's `peak_rss_mb`.
const RING: usize = 2 << 20;

fn ring() -> &'static [u32] {
    static RING_CELL: OnceLock<Vec<u32>> = OnceLock::new();
    RING_CELL.get_or_init(|| {
        // One cycle through all entries in a scrambled order (Sattolo).
        let mut next: Vec<u32> = (0..RING as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..RING).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

/// Edit distance the plain way, on bytes: the compute half of the kernel —
/// loads, compares and branches like the program's own inner loops, but
/// the harness's own code, so no change to the program moves it.
fn edit_distance(a: &[u8], b: &[u8], row: &mut [usize]) -> usize {
    for (j, cell) in row.iter_mut().enumerate() {
        *cell = j;
    }
    for (i, ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = diag + usize::from(ca != cb);
            diag = row[j + 1];
            row[j + 1] = cost.min(diag + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// One run of the reference kernel; seconds.
pub fn reference() -> f64 {
    let ring = ring();
    let (a, b) = (b"similarity queries on structured", b"data in structured overlays 2006");
    let mut row = [0usize; 33];
    let start = Instant::now();
    let mut acc = 0usize;
    for _ in 0..12_000 {
        acc += edit_distance(black_box(a), black_box(b), &mut row);
    }
    let mut at = 0u32;
    for _ in 0..200_000 {
        at = ring[at as usize];
    }
    black_box((acc, at));
    start.elapsed().as_secs_f64()
}

/// Times an interval in speed-normalised slices.
pub struct Pacer {
    on: bool,
    /// Start of the running slice and the kernel time taken just before.
    open: Option<(Instant, f64)>,
    /// The last kernel time and when it was taken, for reuse by a slice
    /// that begins right after another ended.
    last_reference: Option<(Instant, f64)>,
    raw_s: f64,
    normalised_s: f64,
    /// `nominal ÷ kernel time` of every slice: 1 = nominal speed.
    speeds: Vec<f64>,
}

impl Pacer {
    /// A pacer that only adds up wall time (`--smoke`, unit tests).
    pub fn off() -> Self {
        Pacer {
            on: false,
            open: None,
            last_reference: None,
            raw_s: 0.0,
            normalised_s: 0.0,
            speeds: Vec::new(),
        }
    }

    pub fn on() -> Self {
        ring(); // build the ring outside any timed slice
        Pacer { on: true, ..Pacer::off() }
    }

    /// The kernel, under a span of its own so that a traced run accounts
    /// for the time it takes between slices.
    fn run_reference(&self, tr: &mut Tracer) -> f64 {
        if !self.on {
            return NOMINAL_REFERENCE_S;
        }
        let s = tr.begin("bench.reference");
        let r = reference();
        tr.end(s);
        r
    }

    /// Start timing. Everything up to the matching [`Pacer::end`] counts.
    pub fn begin(&mut self, tr: &mut Tracer) {
        assert!(self.open.is_none(), "a slice is already running");
        let before = match self.last_reference {
            Some((when, r)) if when.elapsed().as_secs_f64() < 0.005 => r,
            _ => self.run_reference(tr),
        };
        self.open = Some((Instant::now(), before));
    }

    /// Stop timing and account the slice.
    pub fn end(&mut self, tr: &mut Tracer) {
        let (start, before) = self.open.take().expect("no slice is running");
        let wall = start.elapsed().as_secs_f64();
        let after = self.run_reference(tr);
        self.last_reference = Some((Instant::now(), after));
        let speed = NOMINAL_REFERENCE_S / ((before + after) / 2.0);
        self.raw_s += wall;
        self.normalised_s += wall * speed;
        self.speeds.push(speed);
    }

    /// A point inside a timed loop where the slice may be cut: ends it and
    /// begins the next if it has run long enough, else does nothing.
    pub fn lap(&mut self, tr: &mut Tracer) {
        let (start, _) = self.open.expect("no slice is running");
        if self.on && start.elapsed().as_secs_f64() >= MIN_SLICE_S {
            self.end(tr);
            self.begin(tr);
        }
    }

    /// Wall seconds inside slices, as the clock read them.
    pub fn raw_s(&self) -> f64 {
        self.raw_s
    }

    /// The same at nominal machine speed.
    pub fn normalised_s(&self) -> f64 {
        self.normalised_s
    }

    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// `normalised ÷ raw` over everything timed so far: the factor that
    /// turns a raw span inside these slices into nominal-speed time.
    pub fn factor(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.normalised_s / self.raw_s
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_is_right() {
        let mut row = [0usize; 8];
        assert_eq!(edit_distance(b"kitten", b"sitting", &mut row), 3);
        assert_eq!(edit_distance(b"", b"abc", &mut row), 3);
        assert_eq!(edit_distance(b"same", b"same", &mut row), 0);
    }

    #[test]
    fn ring_is_one_cycle() {
        let ring = ring();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = ring[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, RING, "the chase visits every entry before it repeats");
    }

    #[test]
    fn off_adds_wall_time_only() {
        let (mut p, mut tr) = (Pacer::off(), Tracer::off());
        p.begin(&mut tr);
        std::thread::sleep(std::time::Duration::from_millis(5));
        p.lap(&mut tr);
        p.end(&mut tr);
        assert!(p.raw_s() >= 0.005);
        assert_eq!(p.raw_s(), p.normalised_s());
        assert_eq!((p.speeds(), p.factor()), (&[1.0][..], 1.0));
    }

    #[test]
    fn on_normalises_by_the_kernel() {
        let (mut p, mut tr) = (Pacer::on(), Tracer::on());
        p.begin(&mut tr);
        black_box(reference());
        p.end(&mut tr);
        let speed = p.speeds()[0];
        assert!(speed > 0.0);
        assert!((p.normalised_s() - p.raw_s() * speed).abs() < 1e-12);
        assert!((p.factor() - speed).abs() < 1e-9);
        // The kernel ran before and after, each under its own span.
        assert_eq!(tr.durations_us("bench.reference").len(), 2);
    }
}
