(* Leaks through helpers: Draw.secret returns a PRNG draw, Out.send
   publishes its argument, and the top-level draw returns a draw. A
   submodule helper's summary is keyed by its innermost module, as its
   call sites name it, so all three leaks are reported. *)
open Dmw_bigint

module Draw = struct
  let secret rng = Prng.below rng (Bigint.of_int 97)
end

module Out = struct
  let send eng x = Dmw_sim.Engine.send eng ~src:0 ~dst:1 ~tag:"out" ~bytes:8 x
end

let draw rng = Prng.below rng (Bigint.of_int 89)

let via_return eng rng =
  Dmw_sim.Engine.send eng ~src:0 ~dst:1 ~tag:"r" ~bytes:8 (Draw.secret rng)

let via_param eng rng = Out.send eng (Prng.below rng (Bigint.of_int 83))

let via_toplevel eng rng =
  Dmw_sim.Engine.send eng ~src:0 ~dst:1 ~tag:"t" ~bytes:8 (draw rng)
