(* Seeded leak: an agent's private bid vector reaches the trace. *)
type t = { bids : int array }

let leak tr (a : t) =
  Dmw_sim.Trace.record tr
    { Dmw_sim.Trace.time = 0.0;
      src = 0;
      dst = 1;
      tag = string_of_int a.bids.(0);
      bytes = 0;
    }
