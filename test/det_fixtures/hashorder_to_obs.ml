(* Seeded determinism defect: a value picked in Hashtbl iteration order
   recorded as a metric. The D-obs regime admits wall-clock readings
   only, so dmw_det must still flag the Metrics.bump call (D-obs). *)

let export (sizes : (string, int) Hashtbl.t) =
  let first = Hashtbl.fold (fun _ n acc -> if acc < 0 then n else acc) sizes (-1) in
  Dmw_obs.Metrics.bump "fixture_first" first
