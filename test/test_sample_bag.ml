(* Differential suite for the flat sample bags (Sample_bag).

   The reference executors below keep samples the straightforward way —
   a list of full points per tuple, filled by [Gibbs.sweep], shared by
   scanning the donor's points oldest first through [Tuple.matches], and
   estimated with [Gibbs.estimate_of_points]. [Workload.run] and
   [Parallel.run] store rows in bags, donate through per-edge plans and
   count row codes straight into the joint; they must reproduce the
   reference bit for bit: equal joint float arrays, equal sample counts
   and equal sweep/recorded/shared counters. *)

open Helpers

(* --- models and workloads ------------------------------------------- *)

(* BN10's shape: the catalog network, a model learned from its rows. *)
let bn10_model () =
  let entry = Bayesnet.Catalog.find "BN10" in
  let r = Prob.Rng.create 2011 in
  let net = Bayesnet.Network.generate r entry.topology in
  let data = Bayesnet.Network.sample_instance r net 600 in
  let model =
    Mrsl.Model.learn
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.02 }
      data
  in
  (model, fun rng -> Bayesnet.Network.sample_point rng net)

(* Mixed cardinalities 2..7 with columns correlated through a0, so the
   lattices carry multi-attribute bodies. *)
let mixed_model () =
  let cards = [| 3; 2; 7; 4; 2; 5 |] in
  let arity = Array.length cards in
  let schema = Relation.Schema.of_cardinalities (Array.to_list cards) in
  let draw r =
    let a0 = Prob.Rng.int r cards.(0) in
    Array.init arity (fun a ->
        if a = 0 then a0
        else if Prob.Rng.float r < 0.75 then (a0 + a) mod cards.(a)
        else Prob.Rng.int r cards.(a))
  in
  let r = Prob.Rng.create 7 in
  let points = Array.init 400 (fun _ -> draw r) in
  let model =
    Mrsl.Model.learn_points
      ~params:{ Mrsl.Model.default_params with support_threshold = 0.03 }
      schema points
  in
  (model, draw)

(* Incomplete tuples with 1 .. arity-1 missing values; every second tuple
   also appears with one more value masked, so the tuple DAG has edges
   and tuple-DAG runs really share. *)
let workload draw seed =
  let r = Prob.Rng.create seed in
  List.concat_map
    (fun _ ->
      let p = draw r in
      let arity = Array.length p in
      let tup = Relation.Tuple.of_point p in
      let k = 1 + Prob.Rng.int r (arity - 2) in
      List.iter
        (fun a -> tup.(a) <- None)
        (Prob.Rng.sample_without_replacement r k arity);
      let known = Relation.Tuple.known tup in
      if Prob.Rng.bool r then begin
        let wider = Array.copy tup in
        let a, _ = List.nth known (Prob.Rng.int r (List.length known)) in
        wider.(a) <- None;
        [ tup; wider ]
      end
      else [ tup ])
    (List.init 14 Fun.id)

let config = { Mrsl.Gibbs.burn_in = 8; samples = 40 }

(* --- the list-based reference ---------------------------------------- *)

type ref_node = {
  tuple : Relation.Tuple.t;
  mutable samples : int array list;  (* newest first *)
  mutable count : int;
  mutable completed : bool;
  mutable chain : Mrsl.Gibbs.chain option;
}

type ref_result = {
  estimates : Mrsl.Gibbs.estimate list;
  sweeps : int;
  recorded : int;
  shared : int;
}

let ref_nodes dag =
  Array.init (Mrsl.Tuple_dag.node_count dag) (fun i ->
      {
        tuple = Mrsl.Tuple_dag.tuple dag i;
        samples = [];
        count = 0;
        completed = false;
        chain = None;
      })

let record st point =
  st.samples <- point :: st.samples;
  st.count <- st.count + 1

let reference ?(max_draws = 10_000_000) strategy seed model tuples =
  let sampler = Mrsl.Gibbs.sampler model in
  let rng = Prob.Rng.create seed in
  let dag = Mrsl.Tuple_dag.build tuples in
  let nodes = ref_nodes dag in
  let target = config.samples in
  let sweeps = ref 0 and recorded = ref 0 and shared = ref 0 in
  let start tup =
    let c = Mrsl.Gibbs.chain rng sampler tup in
    for _ = 1 to config.burn_in do
      ignore (Mrsl.Gibbs.sweep rng c);
      incr sweeps
    done;
    c
  in
  let draw st c =
    record st (Mrsl.Gibbs.sweep rng c);
    incr sweeps;
    incr recorded
  in
  (match strategy with
  | Mrsl.Workload.Tuple_at_a_time ->
      Array.iter
        (fun st ->
          let c = start st.tuple in
          for _ = 1 to target do
            draw st c
          done)
        nodes
  | Mrsl.Workload.Tuple_dag ->
      let frontier = Queue.create () in
      List.iter (fun i -> Queue.add i frontier) (Mrsl.Tuple_dag.roots dag);
      let rec complete i =
        let st = nodes.(i) in
        st.completed <- true;
        List.iter
          (fun j ->
            let sj = nodes.(j) in
            if not sj.completed then begin
              List.iter
                (fun point ->
                  if sj.count < target
                     && Relation.Tuple.matches ~point sj.tuple
                  then begin
                    record sj point;
                    incr recorded;
                    incr shared
                  end)
                (List.rev st.samples);
              if sj.count >= target then complete j
              else if
                List.for_all
                  (fun p -> nodes.(p).completed)
                  (Mrsl.Tuple_dag.parents dag j)
              then Queue.add j frontier
            end)
          (Mrsl.Tuple_dag.children dag i)
      in
      while not (Queue.is_empty frontier) do
        let i = Queue.pop frontier in
        let st = nodes.(i) in
        if not st.completed then begin
          let c =
            match st.chain with
            | Some c -> c
            | None ->
                let c = start st.tuple in
                st.chain <- Some c;
                c
          in
          draw st c;
          if st.count >= target then complete i else Queue.add i frontier
        end
      done
  | Mrsl.Workload.All_at_a_time ->
      let arity = Array.length nodes.(0).tuple in
      let c = start (Array.make arity None) in
      let remaining = ref (Array.length nodes) and draws = ref 0 in
      while !remaining > 0 && !draws < max_draws do
        let point = Mrsl.Gibbs.sweep rng c in
        incr sweeps;
        incr draws;
        Array.iter
          (fun st ->
            if (not st.completed) && st.count < target
               && Relation.Tuple.matches ~point st.tuple
            then begin
              record st point;
              incr recorded;
              if st.count >= target then begin
                st.completed <- true;
                decr remaining
              end
            end)
          nodes
      done;
      Array.iter
        (fun st ->
          if st.count = 0 then begin
            let c = start st.tuple in
            for _ = 1 to target do
              draw st c
            done
          end)
        nodes);
  {
    estimates =
      Array.to_list
        (Array.map
           (fun st -> Mrsl.Gibbs.estimate_of_points sampler st.tuple st.samples)
           nodes);
    sweeps = !sweeps;
    recorded = !recorded;
    shared = !shared;
  }

(* [Parallel]'s semantics, replayed sequentially: node [i] samples from
   its own stream [task_seed ~seed i] (the scheduler's stable task
   identity, restated here), and a node pulls donations only once every
   parent has completed — parents ascending, each oldest first. *)
let task_seed ~seed node = seed + ((node + 1) * 0x2545F4914F6CDD1D)

let parallel_reference strategy seed model tuples =
  let sampler = Mrsl.Gibbs.sampler model in
  let dag = Mrsl.Tuple_dag.build tuples in
  let nodes = ref_nodes dag in
  let target = config.samples in
  let use_dag = strategy = Mrsl.Workload.Tuple_dag in
  let parents i = if use_dag then Mrsl.Tuple_dag.parents dag i else [] in
  let sweeps = ref 0 and recorded = ref 0 and shared = ref 0 in
  let rec finish i =
    let st = nodes.(i) in
    if not st.completed then begin
      List.iter finish (parents i);
      List.iter
        (fun p ->
          List.iter
            (fun point ->
              if st.count < target && Relation.Tuple.matches ~point st.tuple
              then begin
                record st point;
                incr recorded;
                incr shared
              end)
            (List.rev nodes.(p).samples))
        (parents i);
      if st.count < target then begin
        let rng = Prob.Rng.create (task_seed ~seed i) in
        let c = Mrsl.Gibbs.chain rng sampler st.tuple in
        for _ = 1 to config.burn_in do
          ignore (Mrsl.Gibbs.sweep rng c);
          incr sweeps
        done;
        while st.count < target do
          record st (Mrsl.Gibbs.sweep rng c);
          incr sweeps;
          incr recorded
        done
      end;
      st.completed <- true
    end
  in
  Array.iteri (fun i _ -> finish i) nodes;
  {
    estimates =
      Array.to_list
        (Array.map
           (fun st -> Mrsl.Gibbs.estimate_of_points sampler st.tuple st.samples)
           nodes);
    sweeps = !sweeps;
    recorded = !recorded;
    shared = !shared;
  }

(* --- comparison -------------------------------------------------------- *)

let check_same msg (expected : ref_result) (got : Mrsl.Workload.result) =
  let got_estimates = List.map snd got.estimates in
  Alcotest.(check int)
    (msg ^ ": estimate count")
    (List.length expected.estimates)
    (List.length got_estimates);
  List.iteri
    (fun k ((e : Mrsl.Gibbs.estimate), (g : Mrsl.Gibbs.estimate)) ->
      if not (Relation.Tuple.equal e.tuple g.tuple) then
        Alcotest.failf "%s: estimate %d is for another tuple" msg k;
      Alcotest.(check int)
        (Printf.sprintf "%s: samples_used %d" msg k)
        e.samples_used g.samples_used;
      Alcotest.(check (list int))
        (Printf.sprintf "%s: missing %d" msg k)
        e.missing g.missing;
      if (e.joint :> float array) <> (g.joint :> float array) then
        Alcotest.failf "%s: joint %d differs from the reference" msg k)
    (List.combine expected.estimates got_estimates);
  Alcotest.(check int) (msg ^ ": sweeps") expected.sweeps got.stats.sweeps;
  Alcotest.(check int)
    (msg ^ ": recorded")
    expected.recorded got.stats.recorded;
  Alcotest.(check int) (msg ^ ": shared") expected.shared got.stats.shared

let models = lazy [ ("BN10", bn10_model ()); ("mixed", mixed_model ()) ]
let seeds = [ 1; 29; 2011 ]

let strategies =
  Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag; All_at_a_time ]

let test_workload_matches_reference () =
  List.iter
    (fun (name, (model, draw)) ->
      List.iter
        (fun seed ->
          let tuples = workload draw (seed + 100) in
          List.iter
            (fun strategy ->
              let msg =
                Printf.sprintf "%s seed %d %s" name seed
                  (Mrsl.Workload.strategy_name strategy)
              in
              (* A tight draw cap keeps all-at-a-time short and also
                 exercises its forced direct chains. *)
              let max_draws = 3000 in
              let expected = reference ~max_draws strategy seed model tuples in
              let got =
                Mrsl.Workload.run ~config ~strategy ~max_draws
                  (Prob.Rng.create seed) (Mrsl.Gibbs.sampler model) tuples
              in
              if strategy = Mrsl.Workload.Tuple_dag && expected.shared = 0
              then Alcotest.failf "%s: workload shares nothing" msg;
              check_same msg expected got)
            strategies)
        seeds)
    (Lazy.force models)

let test_parallel_matches_reference () =
  List.iter
    (fun (name, (model, draw)) ->
      List.iter
        (fun seed ->
          let tuples = workload draw (seed + 200) in
          List.iter
            (fun strategy ->
              let expected = parallel_reference strategy seed model tuples in
              List.iter
                (fun domains ->
                  let msg =
                    Printf.sprintf "%s seed %d %s, %d domains" name seed
                      (Mrsl.Workload.strategy_name strategy)
                      domains
                  in
                  check_same msg expected
                    (Mrsl.Parallel.run ~config ~strategy ~domains ~seed model
                       tuples))
                [ 1; 2; 4 ])
            Mrsl.Workload.[ Tuple_at_a_time; Tuple_dag ])
        seeds)
    (Lazy.force models)

(* --- the bag itself ---------------------------------------------------- *)

let schema = Relation.Schema.of_cardinalities [ 3; 2; 4 ]

let filled tup rows =
  let bag = Mrsl.Sample_bag.create schema ~capacity:8 tup in
  List.iter
    (fun p -> Alcotest.(check bool) "offered" true (Mrsl.Sample_bag.offer bag p))
    rows;
  bag

let test_share_follows_plan () =
  (* Donor knows nothing; the child knows a0 = 1. Only donor rows with
     a0 = 1 are donated, oldest first, and the child stores only its own
     missing columns (a1, a2). *)
  let donor =
    filled [| None; None; None |]
      [ [| 1; 0; 3 |]; [| 0; 1; 2 |]; [| 1; 1; 0 |]; [| 2; 0; 1 |]; [| 1; 0; 2 |] ]
  in
  let child = Mrsl.Sample_bag.create schema ~capacity:2 [| Some 1; None; None |] in
  Alcotest.(check int) "donated up to capacity" 2
    (Mrsl.Sample_bag.share ~donor child);
  Alcotest.(check bool) "full" true (Mrsl.Sample_bag.is_full child);
  Alcotest.(check (list (array int)))
    "oldest matching rows, evidence filled back in"
    [ [| 1; 0; 3 |]; [| 1; 1; 0 |] ]
    (Mrsl.Sample_bag.points child);
  Alcotest.(check int) "full bag takes nothing" 0
    (Mrsl.Sample_bag.share ~donor child)

let test_share_rejects_non_subsumer () =
  let donor = filled [| Some 0; None; None |] [ [| 0; 1; 1 |] ] in
  let check msg tup =
    Alcotest.check_raises msg
      (Invalid_argument "Sample_bag.share: donor does not subsume")
      (fun () ->
        ignore
          (Mrsl.Sample_bag.share ~donor
             (Mrsl.Sample_bag.create schema ~capacity:1 tup)))
  in
  check "evidence disagrees" [| Some 1; None; Some 0 |];
  check "child misses a donor-known attribute" [| None; Some 1; None |]

let test_offer_checks_evidence () =
  let bag = Mrsl.Sample_bag.create schema ~capacity:1 [| None; Some 1; None |] in
  Alcotest.(check bool) "mismatch refused" false
    (Mrsl.Sample_bag.offer bag [| 2; 0; 3 |]);
  Alcotest.(check bool) "match taken" true
    (Mrsl.Sample_bag.offer bag [| 2; 1; 3 |]);
  Alcotest.(check bool) "full refuses" false
    (Mrsl.Sample_bag.offer bag [| 2; 1; 3 |]);
  Alcotest.(check int) "count" 1 (Mrsl.Sample_bag.count bag)

let test_estimate_equals_points_estimate () =
  let model, draw = mixed_model () in
  let sampler = Mrsl.Gibbs.sampler model in
  let tup : Relation.Tuple.t = [| None; Some 1; None; None; Some 0; None |] in
  let bag =
    Mrsl.Sample_bag.create (Mrsl.Model.schema model) ~capacity:50 tup
  in
  let r = Prob.Rng.create 5 in
  for _ = 1 to 200 do
    let p = draw r in
    p.(1) <- 1;
    p.(4) <- 0;
    ignore (Mrsl.Sample_bag.offer bag p)
  done;
  let a = Mrsl.Sample_bag.estimate bag in
  let b =
    Mrsl.Gibbs.estimate_of_points sampler tup (Mrsl.Sample_bag.points bag)
  in
  Alcotest.(check int) "samples" b.samples_used a.samples_used;
  Alcotest.(check bool) "bit-identical joint" true
    ((a.joint :> float array) = (b.joint :> float array))

let test_create_rejects () =
  Alcotest.check_raises "complete"
    (Invalid_argument "Sample_bag.create: tuple is complete") (fun () ->
      ignore (Mrsl.Sample_bag.create schema ~capacity:1 [| Some 0; Some 0; Some 0 |]));
  Alcotest.check_raises "capacity"
    (Invalid_argument "Sample_bag.create: capacity must be >= 1") (fun () ->
      ignore (Mrsl.Sample_bag.create schema ~capacity:0 [| None; Some 0; Some 0 |]))

let test_chain_rejects_out_of_range_evidence () =
  let model, _ = mixed_model () in
  let s = Mrsl.Gibbs.sampler model in
  Alcotest.check_raises "evidence out of range"
    (Invalid_argument "Gibbs.chain: evidence value out of range") (fun () ->
      ignore
        (Mrsl.Gibbs.chain (rng ()) s [| None; Some 2; None; None; None; None |]))

let suite =
  [
    ("workload strategies = list reference", `Slow,
     test_workload_matches_reference);
    ("parallel 1/2/4 domains = list reference", `Slow,
     test_parallel_matches_reference);
    ("share follows the edge plan", `Quick, test_share_follows_plan);
    ("share rejects a non-subsuming donor", `Quick,
     test_share_rejects_non_subsumer);
    ("offer checks evidence and capacity", `Quick, test_offer_checks_evidence);
    ("estimate = estimate_of_points", `Quick,
     test_estimate_equals_points_estimate);
    ("create rejects bad input", `Quick, test_create_rejects);
    ("chain rejects out-of-range evidence", `Quick,
     test_chain_rejects_out_of_range_evidence);
  ]
