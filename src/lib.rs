//! Umbrella crate for the IceClave reproduction.
//!
//! Re-exports the workspace's public API so examples and integration
//! tests can depend on a single crate. See the individual crates for
//! full documentation:
//!
//! # Documentation
//!
//! * `docs/ARCHITECTURE.md` (in-tree) — the crate map, the read and
//!   write event pipelines, the MEE's two-level metadata hierarchy
//!   (SRAM L1 → MAC-sealed DRAM L2 → tree walk), the fair-queueing
//!   scheduler's invariants, and the ticket lifecycle, in one place.
//! * The drain-order contract of the completion queue lives in the
//!   [`iceclave_exec::completion`] module documentation — the single
//!   source of truth, quoted by
//!   [`iceclave_exec::DRAIN_ORDER_CONTRACT`] and the regression tests.
//! * `ROADMAP.md` tracks the north star and open items; `CHANGES.md`
//!   the PR-by-PR history.
//!
//! * [`iceclave_core`] — the IceClave TEE runtime (the paper's
//!   contribution).
//! * [`iceclave_experiments`] — reproductions of every table/figure.
//! * [`iceclave_workloads`] — the eleven evaluation workloads.
//! * Substrates: [`iceclave_flash`], [`iceclave_ftl`], [`iceclave_dram`],
//!   [`iceclave_mee`], [`iceclave_cipher`], [`iceclave_trustzone`],
//!   [`iceclave_cpu`], [`iceclave_sim`], [`iceclave_exec`],
//!   [`iceclave_obs`], [`iceclave_types`].
//!
//! The test-only models — the ordering oracles, the functional MEE and
//! the insecure-ISC attack model — live in `iceclave_testkit`, which
//! only dev-dependencies name; this crate does not re-export it.
//!
//! # Architecture: the event-driven batch executor
//!
//! The protected read and write paths are driven by a deterministic
//! discrete-event executor ([`iceclave_exec`]) so that batches from
//! **multiple TEEs interleave at stage granularity** instead of call
//! granularity: every contended unit (per-channel flash bus and dies,
//! the link's lanes, the MEE/DRAM datapath, the secure monitor)
//! is a resource timeline, and each *stage event* acquires exactly one
//! stage for one page at the simulated time it becomes ready. While
//! TEE A's pages occupy channels 0–3, TEE B's batch streams through
//! channels 4–15 and the decrypt lanes concurrently.
//!
//! ```text
//!  submit_batch_async(tee, lpns, now) ──────────────► Ticket
//!      │ translate + ID-bit check at submission (atomic, §4.5;
//!      │ denial throws the TEE out before any flash traffic),
//!      │ input-ring slots + plaintext snapshot taken here
//!      ▼ pages enter per-channel, per-tenant WFQ lanes
//!  [WfqArbiter: one grant per channel at a time, virtual-time
//!      │         order across TEEs, page-boundary preemption]
//!      ▼
//!  [event heap: (time, vtime, ticket, page) order] ◄── other
//!      │                                   tickets' events interleave
//!      ▼
//!  FlashRead ──► lane ──► Fill (MEE) ──► CompletionQueue
//!        │         └── the config's Link: the channel's decrypt
//!        │             lane (inline), the PCIe lane every channel
//!        │             shares (a Lane event) or none
//!        └── at the flash span's end the arbiter grants the
//!            channel's next page (another tenant's, if its virtual
//!            clock is behind)
//!
//!  submit_write_batch_async(tee, writes, now) ──────► Ticket
//!      │ ownership check at submission (atomic), MEE seal drain
//!      ▼ one Lane event per page at its seal read-out (none on a
//!      │ plain link)
//!  Lane (encrypt or PCIe) ──► Program (ONE event per batch: the
//!      │              single secure-world entry of Ftl::write_batch,
//!      │              fired when the last page crossed its lane; the
//!      │              arbiter is charged per programmed page)
//!      ▼
//!  per-page durable completions ──► CompletionQueue
//!
//!  poll_completions(now)   drains ready events in the documented
//!                          drain order (see the
//!                          iceclave_exec::completion module docs)
//!  wait_batch(ticket)      runs one ticket, read or write, to its
//!                          close and returns its events in page
//!                          order
//! ```
//!
//! **Ticket lifecycle.** Four calls submit — `submit_batch_async`,
//! `submit_write_batch_async` and their `_as` forms, which take a fill
//! class or payloads — and one waits. A submit runs the atomic access
//! check and returns a [`iceclave_types::Ticket`]; the batch then
//! advances only as the executor processes events —
//! `poll_completions(now)` advances the event clock to `now` and
//! drains every [`iceclave_types::CompletionEvent`] (per-page status
//! plus [`iceclave_types::LatencyBreakdown`]) that became ready;
//! `wait_batch` runs the heap until one ticket closes and returns the
//! same events as a [`iceclave_types::BatchCompletion`]. A page's
//! `ready_at()` is its fill time on a read and its durable time on a
//! write. Completions drain in the documented stable order (single
//! source of truth: the [`iceclave_exec::completion`] module docs) —
//! regression-tested, so identical runs produce identical completion
//! sequences. Tickets in flight together have **no ordering
//! guarantees between each other** (translation, access control and
//! content snapshot at submission, like commands in a device queue);
//! drain a ticket before submitting work that depends on it.
//! `tests/exec_interleaving.rs` holds the executor acceptance
//! criteria (two concurrent 32-page batches on 16 channels beat
//! the same two waited back to back while staying byte-identical) and
//! `tests/exec_equivalence.rs` the interleaving/sequential
//! equivalence proptest.
//!
//! # Architecture: fair queueing across TEEs
//!
//! The flash channels are arbitrated across tenants by
//! [`iceclave_ftl::WfqArbiter`] (§6.8, Figures 17/18): per-channel
//! start-time fair queueing over page-sized quanta. Each channel
//! keeps one lane per TEE; granting a page advances the lane's
//! virtual finish tag by one quantum, and the next grant — decided
//! only when the granted page's flash service completes, the
//! page-boundary preemption point — goes to the lane with the
//! smallest start tag. A greedy tenant keeping eight 32-page tickets
//! in flight therefore shares every contended channel page-by-page
//! with a solo 4-page tenant instead of starving it
//! (`tests/wfq_fairness.rs`: the victim's p99 improves ≥ 2x over the
//! same duel with both roles in one TEE, and a backlogged duel never
//! leaves 10% of an even split over any 10k-page window). The
//! `fairness` bench emits the `BENCH_fairness.json` baseline (victim
//! p99 + Jain's index over the antagonist sweep). See
//! `docs/ARCHITECTURE.md` for the full treatment.

pub use iceclave_cipher;
pub use iceclave_core;
pub use iceclave_cpu;
pub use iceclave_dram;
pub use iceclave_exec;
pub use iceclave_experiments;
pub use iceclave_flash;
pub use iceclave_ftl;
pub use iceclave_mee;
pub use iceclave_obs;
pub use iceclave_sim;
pub use iceclave_trustzone;
pub use iceclave_types;
pub use iceclave_workloads;
