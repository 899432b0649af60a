(* A CPU-bound loop in a module of its own, so the sampler self-test
   knows where its samples belong.  It allocates, as the simulator does:
   a loop that never allocates polls for signals at points without
   debug locations, so its samples land on its caller. *)

let[@inline never] spin seconds =
  let stop = Sys.time () +. seconds in
  let acc = ref 0 in
  while Sys.time () < stop do
    for i = 1 to 100_000 do
      acc := (!acc * 31) + Array.length (Sys.opaque_identity (Array.make 3 i))
    done
  done;
  !acc
