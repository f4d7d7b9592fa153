// Package core implements the power management scheduling algorithm of
// Monteiro, Devadas, Ashar and Mauskar (DAC'96), the primary contribution
// of the reproduced paper.
//
// Given a CDFG and a throughput constraint (a number of control steps), the
// algorithm examines each multiplexor and asks whether the operations
// feeding its data inputs can be scheduled strictly after the operation
// producing its select signal. When they can, the controller knows — before
// those operations start — whether their results will be used, and can
// refuse to load the input registers of the units computing the dead
// branch: no switching activity, no dynamic power.
//
// The entry point is Schedule. It follows the paper's Figure 3:
//
//  1. compute ASAP/ALAP for the requested budget;
//  2. for each multiplexor (outputs first), annotate the transitive fanin
//     cones of its select and data inputs, derive the maximal gateable sets,
//     tentatively serialize control-before-data, and commit the mux if every
//     node still satisfies ASAP <= ALAP (the window is updated incrementally
//     and a rejected mux is rolled back, see sched.Incremental);
//  3. insert control edges from the select driver to the top nodes of each
//     committed gated cone;
//  4. hand the augmented graph to the HYPER-substitute list scheduler
//     (internal/sched) to obtain a minimum-resource schedule.
//
// Section IV.A's multiplexor reordering is available through
// Config.Order; Section IV.B's pipelining through Config.II.
package core
