//! A block write's payload is never copied between `Mounted::write` and
//! the disk's page store.
//!
//! The caller's buffer becomes one shared `Bytes` that the ClientLib
//! queue, iSCSI, the EndPoint, the USB fabric and the disk all pass on by
//! reference; the page store keeps each fully written 4 KiB page as a
//! window into it. This test counts the heap bytes allocated while a lap
//! of 64 KiB block writes runs on a one-unit pod and bounds them far
//! below one block per write, so any layer that clones the payload again
//! fails here without wall-clock noise. It then checks the copy-on-write
//! side: a small write straddling a page boundary inside a shared block
//! lands, every block reads back as a byte model says, and the buffer
//! the test kept is untouched.
//!
//! This file is its own test binary on purpose — a `#[global_allocator]`
//! is process-wide, and the single test keeps the counter honest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ustore::{Mounted, UStoreSystem};
use ustore_net::BlockDevice;
use ustore_sim::Bytes;

/// Delegates to the system allocator while counting allocated bytes.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCK: usize = 64 * 1024;
const RING: usize = 8;
/// Allocation budget per 64 KiB write: messages, closures and queue
/// entries fit easily; one more copy of the payload does not.
const BUDGET_PER_WRITE: u64 = 16 * 1024;

/// The bytes lap `lap` writes into block `k`.
fn pattern(lap: usize, k: usize) -> Vec<u8> {
    (0..BLOCK)
        .map(|i| (i * 31 + k * 7 + lap * 101) as u8)
        .collect()
}

/// Runs the pod until `done` reads `n`, in 1 ms steps.
fn run_until_done(s: &UStoreSystem, done: &Cell<usize>, n: usize) {
    let give_up = s.sim.now() + Duration::from_secs(30);
    while done.get() < n {
        assert!(s.sim.now() < give_up, "{} of {n} ops completed", done.get());
        s.sim.run_until(s.sim.now() + Duration::from_millis(1));
    }
}

/// Issues one write per buffer, block `k` at offset `k * BLOCK`, and
/// runs the pod until all of them are acknowledged.
fn write_lap(s: &UStoreSystem, m: &Mounted, bufs: Vec<(usize, Bytes)>) {
    let done = Rc::new(Cell::new(0));
    let n = bufs.len();
    for (offset, buf) in bufs {
        let d = done.clone();
        m.write(
            &s.sim,
            offset as u64,
            buf,
            Box::new(move |_, r| {
                r.expect("write");
                d.set(d.get() + 1);
            }),
        );
    }
    run_until_done(s, &done, n);
}

fn mount_fresh_space(s: &UStoreSystem) -> Mounted {
    let client = s.client("ingest");
    let space = Rc::new(RefCell::new(None));
    let sp = space.clone();
    client.allocate(&s.sim, "archive", 1 << 30, move |_, r| {
        *sp.borrow_mut() = Some(r.expect("allocate").name);
    });
    s.sim.run_until(s.sim.now() + Duration::from_secs(8));
    let name = space.borrow_mut().take().expect("allocated");
    let mounted = Rc::new(RefCell::new(None));
    let mo = mounted.clone();
    client.mount(&s.sim, name, move |_, r| {
        *mo.borrow_mut() = Some(r.expect("mount"));
    });
    s.sim.run_until(s.sim.now() + Duration::from_secs(12));
    let m = mounted.borrow_mut().take().expect("mounted");
    m
}

#[test]
fn block_writes_share_one_buffer_down_to_the_page_store() {
    let s = UStoreSystem::prototype(11);
    s.settle();
    let m = mount_fresh_space(&s);
    let mut model = vec![0u8; RING * BLOCK];

    // Two warm-up laps grow every map and queue on the path to size.
    for lap in 0..2 {
        let bufs = (0..RING)
            .map(|k| (k * BLOCK, Arc::new(pattern(lap, k))))
            .collect();
        write_lap(&s, &m, bufs);
    }

    // The measured lap: its buffers exist before the window opens, and
    // the test keeps a second reference to each.
    let kept: Vec<Bytes> = (0..RING).map(|k| Arc::new(pattern(2, k))).collect();
    for (k, buf) in kept.iter().enumerate() {
        model[k * BLOCK..(k + 1) * BLOCK].copy_from_slice(buf);
    }
    let bufs = kept
        .iter()
        .enumerate()
        .map(|(k, buf)| (k * BLOCK, Bytes::clone(buf)))
        .collect();
    let before = BYTES.load(Ordering::Relaxed);
    write_lap(&s, &m, bufs);
    let per_write = (BYTES.load(Ordering::Relaxed) - before) / RING as u64;
    assert!(
        per_write < BUDGET_PER_WRITE,
        "{per_write} bytes allocated per {BLOCK}-byte write (budget {BUDGET_PER_WRITE}): \
         a layer copies the payload"
    );

    // Each of the block's 16 pages is a window into the buffer it came in.
    assert_eq!(Arc::strong_count(&kept[3]), 1 + BLOCK / 4096);

    // 100 bytes straddling the boundary between pages 0 and 1 of block 3:
    // both pages are copied and changed, the shared buffer is not.
    let at = 3 * BLOCK + 4096 - 50;
    model[at..at + 100].fill(0xA5);
    write_lap(&s, &m, vec![(at, Arc::new(vec![0xA5; 100]))]);
    assert_eq!(
        *kept[3],
        pattern(2, 3),
        "the shared buffer was written through"
    );
    assert_eq!(Arc::strong_count(&kept[3]), 1 + BLOCK / 4096 - 2);

    let read_back = Rc::new(RefCell::new(vec![Vec::new(); RING]));
    let done = Rc::new(Cell::new(0));
    for k in 0..RING {
        let (rb, d) = (read_back.clone(), done.clone());
        m.read(
            &s.sim,
            (k * BLOCK) as u64,
            BLOCK as u64,
            Box::new(move |_, r| {
                rb.borrow_mut()[k] = r.expect("read");
                d.set(d.get() + 1);
            }),
        );
    }
    run_until_done(&s, &done, RING);
    for (k, got) in read_back.borrow().iter().enumerate() {
        assert!(
            *got == model[k * BLOCK..(k + 1) * BLOCK],
            "block {k} differs from the model"
        );
    }
}
