type stats = {
  score : float;
  iterations : int;
  families_scored : int;
}

(* Count table for one family: counts.(parent_code).(value). *)
let family_counts ~cards points var parents =
  let parent_arr = Array.of_list parents in
  let parent_cards = Array.map (fun p -> cards.(p)) parent_arr in
  let rows = Relation.Domain.count parent_cards in
  let counts = Array.make_matrix rows cards.(var) 0 in
  let values = Array.make (Array.length parent_arr) 0 in
  Array.iter
    (fun point ->
      Array.iteri (fun k p -> values.(k) <- point.(p)) parent_arr;
      let code = Relation.Domain.encode parent_cards values in
      counts.(code).(point.(var)) <- counts.(code).(point.(var)) + 1)
    points;
  counts

let bic_family_score ~cards points var parents =
  let n = Array.length points in
  let counts = family_counts ~cards points var parents in
  let ll = ref 0. in
  Array.iter
    (fun row ->
      let total = Array.fold_left ( + ) 0 row in
      if total > 0 then
        Array.iter
          (fun c ->
            if c > 0 then
              ll :=
                !ll
                +. (float_of_int c
                   *. log (float_of_int c /. float_of_int total)))
          row)
    counts;
  let free_params =
    float_of_int (Array.length counts) *. float_of_int (cards.(var) - 1)
  in
  !ll -. (0.5 *. log (float_of_int n) *. free_params)

module Family_key = struct
  type t = int * int list

  let equal (a : t) (b : t) = a = b
  let hash = Hashtbl.hash
end

module Cache = Hashtbl.Make (Family_key)

type op = Add of int * int | Remove of int * int | Reverse of int * int

let fit ?(max_parents = 3) ?(max_iterations = 200) ?(alpha = 1.0) ~cards
    points =
  if Array.length points = 0 then
    invalid_arg "Structure_learn.fit: empty data";
  Array.iter
    (fun p ->
      if Array.length p <> Array.length cards then
        invalid_arg "Structure_learn.fit: tuple arity mismatch";
      Array.iteri
        (fun i v ->
          if v < 0 || v >= cards.(i) then
            invalid_arg "Structure_learn.fit: value out of range")
        p)
    points;
  let n_vars = Array.length cards in
  (* parents.(v) is kept sorted for stable cache keys. *)
  let parents = Array.make n_vars [] in
  let cache = Cache.create 256 in
  let families_scored = ref 0 in
  let score_family var ps =
    let key = (var, ps) in
    match Cache.find_opt cache key with
    | Some s -> s
    | None ->
        incr families_scored;
        let s = bic_family_score ~cards points var ps in
        Cache.replace cache key s;
        s
  in
  (* Acyclicity: does a directed path x ⇝ y exist under the current
     structure (edges parent → child)? *)
  let reaches x y =
    let visited = Array.make n_vars false in
    let rec walk v =
      v = y
      || (not visited.(v))
         &&
         (visited.(v) <- true;
          (* children of v: those with v among their parents *)
          let rec any i =
            i < n_vars
            && ((List.mem v parents.(i) && walk i) || any (i + 1))
          in
          any 0)
    in
    walk x
  in
  let apply = function
    | Add (p, c) -> parents.(c) <- List.sort Int.compare (p :: parents.(c))
    | Remove (p, c) -> parents.(c) <- List.filter (( <> ) p) parents.(c)
    | Reverse (p, c) ->
        parents.(c) <- List.filter (( <> ) p) parents.(c);
        parents.(p) <- List.sort Int.compare (c :: parents.(p))
  in
  (* Score delta of an operation, touching only the affected families. *)
  let delta = function
    | Add (p, c) ->
        score_family c (List.sort Int.compare (p :: parents.(c)))
        -. score_family c parents.(c)
    | Remove (p, c) ->
        score_family c (List.filter (( <> ) p) parents.(c))
        -. score_family c parents.(c)
    | Reverse (p, c) ->
        score_family c (List.filter (( <> ) p) parents.(c))
        -. score_family c parents.(c)
        +. score_family p (List.sort Int.compare (c :: parents.(p)))
        -. score_family p parents.(p)
  in
  let legal = function
    | Add (p, c) ->
        p <> c
        && (not (List.mem p parents.(c)))
        && List.length parents.(c) < max_parents
        (* adding p → c creates a cycle iff c already reaches p *)
        && not (reaches c p)
    | Remove (p, c) -> List.mem p parents.(c)
    | Reverse (p, c) ->
        List.mem p parents.(c)
        && List.length parents.(p) < max_parents
        &&
        (* After removing p → c, adding c → p must not close a cycle. *)
        (apply (Remove (p, c));
         let ok = not (reaches p c) in
         apply (Add (p, c));
         ok)
  in
  let iterations = ref 0 in
  let improved = ref true in
  while !improved && !iterations < max_iterations do
    improved := false;
    let best = ref None in
    for p = 0 to n_vars - 1 do
      for c = 0 to n_vars - 1 do
        if p <> c then
          List.iter
            (fun op ->
              if legal op then begin
                let d = delta op in
                match !best with
                | Some (_, best_d) when best_d >= d -> ()
                | _ -> if d > 1e-9 then best := Some (op, d)
              end)
            [ Add (p, c); Remove (p, c); Reverse (p, c) ]
      done
    done;
    match !best with
    | Some (op, _) ->
        apply op;
        improved := true;
        incr iterations
    | None -> ()
  done;
  (* Final score and smoothed parameter estimation. *)
  let score =
    let acc = ref 0. in
    for v = 0 to n_vars - 1 do
      acc := !acc +. score_family v parents.(v)
    done;
    !acc
  in
  let topo =
    Topology.make
      ~names:(Array.init n_vars (fun i -> "a" ^ string_of_int i))
      ~cards:(Array.copy cards)
      ~parents:(Array.map Array.of_list parents)
  in
  let cpts =
    Array.init n_vars (fun v ->
        let counts = family_counts ~cards points v parents.(v) in
        Array.map
          (fun row ->
            Prob.Dist.of_weights
              (Array.map (fun c -> float_of_int c +. alpha) row))
          counts)
  in
  let network = Network.make topo cpts in
  ( network,
    {
      score;
      iterations = !iterations;
      families_scored = !families_scored;
    } )
