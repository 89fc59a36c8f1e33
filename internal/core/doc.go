// Package core implements the ALPS scheduling algorithm (Newhouse &
// Pasquale, "ALPS: An Application-Level Proportional-Share Scheduler",
// HPDC 2006, Figure 3).
//
// The algorithm is substrate-free: it never reads a clock, touches an OS
// process, or sleeps. A driver (the discrete-event simulator in
// internal/sim, or the real-process runner in internal/osproc) calls
// Scheduler.Tick once per ALPS quantum with a callback that reports each
// task's CPU consumption since it was last measured, and applies the
// eligibility transitions the scheduler returns (suspending tasks that
// exhausted their allowance, resuming tasks that earned a new one).
//
// Terminology follows the paper:
//
//   - A quantum (Q) is the period between invocations of the algorithm.
//   - A cycle is the period over which proportional share is guaranteed;
//     it completes when the tasks have jointly consumed S·Q of CPU time,
//     where S is the total number of shares.
//   - A task's allowance is the CPU time it may consume before the end of
//     the current cycle. Eligible tasks have positive allowance; tasks
//     whose allowance reaches zero are suspended until the cycle ends.
//
// The paper expresses allowances in units of quanta; this implementation
// keeps them in time units (allowance_time = allowance_quanta × Q), which
// is algebraically identical but avoids division on the hot path and keeps
// every quantity an integer number of nanoseconds.
//
// The Section 2.3 optimization — postponing the next measurement of a task
// by ⌈allowance/(k·Q)⌉ quanta, since the task cannot possibly exhaust its
// allowance sooner — is implemented and on by default; set
// Config.DisableLazySampling to obtain the unoptimized baseline the paper
// compares against in Section 3.2. k is the drain width the substrate
// reports with each measurement (Progress.Width): how many CPUs the task
// could be using at once. It is 1 on the paper's uniprocessor, where the
// rule is the paper's ⌈allowance/Q⌉.
package core
