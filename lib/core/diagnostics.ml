type report = {
  psrf_max : float;
  ess_min : float;
  chains : int;
  draws_per_chain : int;
}

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let potential_scale_reduction series =
  let m = Array.length series in
  if m < 2 then
    invalid_arg "Diagnostics.potential_scale_reduction: need >= 2 chains";
  let n = Array.length series.(0) in
  if n < 4 then
    invalid_arg "Diagnostics.potential_scale_reduction: chains too short";
  Array.iter
    (fun chain ->
      if Array.length chain <> n then
        invalid_arg "Diagnostics.potential_scale_reduction: ragged chains")
    series;
  let nf = float_of_int n and mf = float_of_int m in
  let chain_means = Array.map mean series in
  let grand = mean chain_means in
  (* Between-chain variance B and within-chain variance W. *)
  let b =
    nf /. (mf -. 1.)
    *. Array.fold_left
         (fun acc mu -> acc +. ((mu -. grand) ** 2.))
         0. chain_means
  in
  let w =
    mean
      (Array.map
         (fun chain ->
           let mu = mean chain in
           Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. chain
           /. (nf -. 1.))
         series)
  in
  if w <= 1e-12 then 1.0
  else
    let var_plus = (((nf -. 1.) /. nf) *. w) +. (b /. nf) in
    sqrt (var_plus /. w)

let effective_sample_size series =
  let n = Array.length series in
  if n < 2 then 1.
  else begin
    let mu = mean series in
    let var =
      Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. series
      /. float_of_int n
    in
    if var <= 1e-12 then float_of_int n
    else begin
      let autocov k =
        let acc = ref 0. in
        for i = 0 to n - 1 - k do
          acc := !acc +. ((series.(i) -. mu) *. (series.(i + k) -. mu))
        done;
        !acc /. float_of_int n
      in
      (* Initial positive sequence: sum pair sums Γ_k = ρ_{2k} + ρ_{2k+1}
         while positive (Geyer 1992). *)
      let rec accumulate k acc =
        if 2 * k + 1 >= n then acc
        else
          let gamma = (autocov (2 * k) +. autocov ((2 * k) + 1)) /. var in
          if gamma <= 0. then acc else accumulate (k + 1) (acc +. gamma)
      in
      (* k = 0 contributes ρ0 + ρ1 where ρ0 = 1. *)
      let tau = Float.max 1. ((2. *. accumulate 0 0.) -. 1.) in
      Float.max 1. (Float.min (float_of_int n) (float_of_int n /. tau))
    end
  end

(* [f k v] for every (column [k], value [v]) pair of a bag's rows:
   columns ascending, then values. *)
let iter_pairs bag f =
  Array.iteri
    (fun k card ->
      for v = 0 to card - 1 do
        f k v
      done)
    (Sample_bag.cardinalities bag)

(* The 0/1 series of [value = v] in column [k] over rows [lo, lo + len). *)
let indicator bag k v ~lo ~len =
  Array.init len (fun r ->
      if Sample_bag.value bag (lo + r) k = v then 1. else 0.)

let diagnose ?(chains = 4) ?(draws = 500) ?(burn_in = 100) rng sampler tup =
  if chains < 2 then invalid_arg "Diagnostics.diagnose: need >= 2 chains";
  if draws < 4 then invalid_arg "Diagnostics.diagnose: need >= 4 draws";
  if Relation.Tuple.missing tup = [] then
    invalid_arg "Diagnostics.diagnose: tuple is complete";
  let schema = Model.schema (Gibbs.model sampler) in
  let bags =
    Array.init chains (fun _ ->
        let bag = Sample_bag.create schema ~capacity:draws tup in
        Gibbs.fill ~burn_in (Prob.Rng.split rng) sampler bag;
        bag)
  in
  let psrf_max = ref 1. and ess_min = ref (float_of_int draws) in
  iter_pairs bags.(0) (fun k v ->
      let series =
        Array.map (fun bag -> indicator bag k v ~lo:0 ~len:draws) bags
      in
      let r = potential_scale_reduction series in
      if r > !psrf_max then psrf_max := r;
      Array.iter
        (fun chain ->
          let ess = effective_sample_size chain in
          if ess < !ess_min then ess_min := ess)
        series);
  { psrf_max = !psrf_max; ess_min = !ess_min; chains; draws_per_chain = draws }

let converged report = report.psrf_max <= 1.1

type retry_policy = { max_retries : int; max_total_sweeps : int }

let default_retry_policy = { max_retries = 2; max_total_sweeps = 200_000 }

(* Split-R̂ over a bag's rows: each (column, value) indicator series is
   split into halves treated as two chains — the standard single-run
   proxy for the multi-chain Gelman–Rubin statistic. 1.0 (trivially
   converged) when there are fewer than 8 rows, where halves would be
   too short to diagnose. *)
let split_rhat bag =
  let n = Sample_bag.count bag in
  if n < 8 then 1.0
  else begin
    let half = n / 2 and rmax = ref 1.0 in
    iter_pairs bag (fun k v ->
        let r =
          potential_scale_reduction
            [|
              indicator bag k v ~lo:0 ~len:half;
              indicator bag k v ~lo:(n - half) ~len:half;
            |]
        in
        if r > !rmax then rmax := r);
    !rmax
  end

(* One (split-R̂, min ESS) reading over a bag's rows so far — the payload
   of the trace layer's per-chain convergence timeline (Trace counter
   events named [gibbs.convergence]). ESS is the minimum
   initial-positive-sequence estimate over every (column, value)
   indicator series, mirroring [diagnose]. *)
let convergence_snapshot bag =
  let rhat = split_rhat bag and n = Sample_bag.count bag in
  if n < 2 then (rhat, float_of_int n)
  else begin
    let ess_min = ref (float_of_int n) in
    iter_pairs bag (fun k v ->
        let ess = effective_sample_size (indicator bag k v ~lo:0 ~len:n) in
        if ess < !ess_min then ess_min := ess);
    (rhat, !ess_min)
  end
