(* Entry point of the benchmark; perfbench/run.py builds and runs it.

   perfbench.exe --workload learn|derive|serve --seed N --seconds S
                 --trace 0|1 --daemon MRSL_CLI --run-dir DIR
                 [--tree HASH --dirty true|false|null --nproc N --cpu C]

   Prints a provenance line, a host-noise line and, last, one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. *)

module Json = Common.Json

let workloads = [ "learn"; "derive"; "serve" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let daemon = ref "" and run_dir = ref "." in
  let tree = ref "unknown" and dirty = ref "null" and nproc = ref 0 in
  let cpu = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " learn | derive | serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 = per-layer run");
      ("--daemon", Arg.Set_string daemon, " path of the mrsl CLI binary");
      ("--run-dir", Arg.Set_string run_dir, " directory for sockets and models");
      ("--tree", Arg.Set_string tree, " source tree hash");
      ("--dirty", Arg.Set_string dirty, " whether the tree differs from HEAD");
      ("--nproc", Arg.Set_int nproc, " CPUs available");
      ("--cpu", Arg.Set_int cpu, " the CPU the run is pinned to");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --daemon EXE";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let seed = !seed and seconds = float_of_int !seconds in
  let exe = !daemon and run_dir = !run_dir in
  Common.print_json
    (Json.Obj
       [
         ( "provenance",
           Json.Obj
             [
               ("tree", Json.String !tree);
               ( "dirty",
                 match !dirty with
                 | "true" -> Json.Bool true
                 | "false" -> Json.Bool false
                 | _ -> Json.Null );
               ("workload", Json.String !workload);
               ("seed", Json.Int seed);
               ("seconds", Json.Float seconds);
               ("trace", Json.Bool (!trace = 1));
               ("nproc", Json.Int !nproc);
               ("pinned_cpu", if !cpu < 0 then Json.Null else Json.Int !cpu);
               ("ocaml", Json.String Sys.ocaml_version);
               ( "params",
                 Json.Obj
                   [
                     ("learn", Json.Obj Learn_wl.params);
                     ("derive", Json.Obj Derive_wl.params);
                     ("serve", Json.Obj Serve_wl.params);
                   ] );
             ] );
       ]);
  let host = Common.host_mark () in
  let outcome =
    if !trace = 0 then
      match !workload with
      | "learn" -> Learn_wl.run ~seed ~seconds
      | "derive" -> Derive_wl.run ~seed ~seconds
      | _ -> Serve_wl.run ~seed ~seconds ~exe ~run_dir
    else begin
      (* Every traced run reports every layer: the named workload's
         pipeline first, then the others', each on its own inputs for an
         equal share of the time. The serve pipeline also times the layers
         of its set-up (learning, kernel compile, save, load), which the
         learn pipeline times on its own inputs; the first pipeline to
         report a metric gives its value. *)
      let pipelines =
        if !workload = "learn" then workloads else [ "derive"; "serve" ]
      in
      let order = !workload :: List.filter (( <> ) !workload) pipelines in
      let share = seconds /. float_of_int (List.length order) in
      let traced = function
        | "learn" -> Learn_wl.trace ~seed ~seconds:share
        | "derive" -> Derive_wl.trace ~seed ~seconds:share
        | _ -> Serve_wl.trace ~seed ~seconds:share ~exe ~run_dir
      in
      let parts = List.map traced order in
      {
        Common.metrics =
          List.fold_left
            (fun acc ((name, _, _) as m) ->
              if List.exists (fun (n, _, _) -> n = name) acc then acc
              else acc @ [ m ])
            []
            (List.concat_map (fun o -> o.Common.metrics) parts);
        attempted =
          List.fold_left (fun acc o -> acc + o.Common.attempted) 0 parts;
        failed = List.fold_left (fun acc o -> acc + o.Common.failed) 0 parts;
      }
    end
  in
  Common.print_json (Json.Obj [ ("host", Common.host_json host) ]);
  Common.print_json
    (Json.Obj
       [
         ("correct", Json.Bool (outcome.failed = 0));
         ("attempted", Json.Int outcome.attempted);
         ("failed", Json.Int outcome.failed);
         ("metrics", Common.metrics_json outcome.metrics);
       ])
