// Package sched provides the scheduling substrate the power management pass
// runs on: ASAP/ALAP timing analysis, a resource-constrained list scheduler
// with least-slack priority, an iterative minimum-resource search (standing
// in for the HYPER scheduler of Rabaey et al.), a modulo variant used
// for pipelined designs, and Incremental, the ASAP/ALAP window the power
// management pass keeps up to date edge by edge instead of recomputing it.
//
// Timing convention: every value has an availability time. Primary inputs
// and constants are available at time 0 (before the first control step).
// An operation executing in control step s (1-based) produces its value at
// time s. Free nodes (constant shifts, outputs) add no delay. A schedule
// with budget T requires every output value to be available by time T.
package sched
