// Package reconcile converges a serve.Server registry toward a
// directory of declarative network specs.
//
// The controller follows the informer → rate-limited-workqueue →
// keyed-worker shape of Kubernetes-style controllers: a polling
// lister parses every spec file (one canonical serve.NetworkSpec per
// JSON file) and computes drift by content hash
// against the live registry; drifted or removed names are enqueued;
// workers — at most one per name at a time, enforced by per-name
// keyed locks — apply the cheapest convergent operation through
// serve's ApplySpec (create, dynamic.Delta patch, or rebuild) or
// DeleteNetwork. Failures retry with per-item exponential backoff
// until MaxRetries, after which the name parks in a terminal-failure
// state until its spec content changes.
//
// Reconcile-loop invariants (see CONTRIBUTING.md):
//
//   - Reconciling is idempotent: applying the same spec twice leaves
//     the second application unchanged, so a crash between enqueue and
//     apply is always safe to re-drive.
//   - Diff decisions never consult the wall clock: drift is a pure
//     function of spec content hash vs registry state. Time appears
//     only in pacing (poll interval, backoff, queue latency metrics),
//     each use waived explicitly for the sinrlint determinism pass,
//     which covers this package.
//   - Spec parse errors never cascade into deletes: a previously-good
//     file that stops parsing keeps its last good spec in the desired
//     set (and is counted in sinr_reconcile_spec_errors_total) rather
//     than making its network look removed.
package reconcile
