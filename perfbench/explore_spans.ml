(* Spans around every closure the explorer calls back into: building
   the system for an execution, and its start, digest, drain and audit
   hooks. *)

module Explore = Rt_explore.Explore

let traced_sys make () =
  let s = Prof.span "Sweep.make_sys" make in
  let wrap name f () = Prof.span name f in
  { s with
    Explore.ys_start = wrap "sys.ys_start" s.Explore.ys_start;
    ys_digest = wrap "sys.ys_digest" s.ys_digest;
    ys_drain = wrap "sys.ys_drain" s.ys_drain;
    ys_audit = wrap "sys.ys_audit" s.ys_audit }
