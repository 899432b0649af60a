(* Host-speed calibration.  On a shared host, other tenants slow this
   process down by up to 2x, in bursts of a second and in stretches of
   minutes, and the slowdown shows in CPU time as much as in wall time.
   Between timed parts the benchmark times a fixed reference kernel, at
   most every [interval] seconds, so the kernel samples the host's speed
   evenly over the run, as the benchmark's own work does; the median
   kernel time says how fast the host was during the run.  Host times
   are reported in reference seconds: raw seconds x [reference_s] /
   median kernel time.  The kernel uses only the standard library, so
   no change to the system under test moves it. *)

let now = Unix.gettimeofday

(* Building a 3000-entry integer map with boxed values: allocation,
   minor and major GC work, and pointer chasing through a tree, the same
   mix the simulator runs on.  Of the kernels tried beside explorer and
   cluster units on the development host (a small hash table, a 64k-entry
   hash table, random access over 32 MB, and this), this one's speed
   followed theirs most closely. *)
module M = Map.Make (Int)

let[@inline never] kernel () =
  let m = ref M.empty in
  for i = 1 to 3000 do
    m := M.add (i * 7919 land 65535) (i, string_of_int i) !m
  done;
  M.cardinal !m

(* The kernel's median time on the development host (2-core Xeon VM,
   OCaml 5.1.1) when nothing else ran: there, one reference second is
   one host second. *)
let reference_s = 0.0008

let interval = 0.1

let last = ref neg_infinity
let times : float list ref = ref []

(* The first run brings the kernel's code and data back into the caches
   the benchmark's own work evicted; the second is timed. *)
let time_kernel () =
  ignore (Sys.opaque_identity (kernel ()));
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  times := (now () -. t0) :: !times

(* Times the kernel if the last time is older than [interval]. *)
let tick () =
  if now () -. !last >= interval then begin
    time_kernel ();
    last := now ()
  end

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_s () =
  if !times = [] then time_kernel ();
  median !times

(* Reference seconds per host second over the run so far. *)
let scale () = reference_s /. median_s ()
