(** Golden-regression gate over [Oracle.Golden].

    Examples:
      golden --check                  # diff the committed matrix vs goldens/
      golden --regen                  # rewrite goldens/*.json
      golden --check --designs sb1    # only sb1 entries
      golden --regen --dir /tmp/g --scale 0.05

    Exit status 0 when the check passes (or after a regen), 1 on any
    mismatch or missing golden, 6 (parse_error) when a design file is
    missing: run it from the repository root. CI wires `--check` as a
    required job. *)

open Cmdliner

let split_csv s =
  String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")

(* --scale applies to suite entries only: a file design has no scale. *)
let select_entries designs scale =
  Oracle.Golden.default_entries
  |> List.map (fun (e : Oracle.Golden.entry) ->
         match (e.Oracle.Golden.source, scale) with
         | Oracle.Golden.Suite s, Some scale ->
             { e with Oracle.Golden.source = Oracle.Golden.Suite { s with scale } }
         | _ -> e)
  |> List.filter (fun e ->
         match designs with [] -> true | ds -> List.mem (Oracle.Golden.design_name e) ds)

let run check regen dir designs scale =
  Util.Errors.or_exit @@ fun () ->
  let entries = select_entries (split_csv designs) scale in
  if entries = [] then begin
    prerr_endline "golden: no entries selected (check --designs)";
    1
  end
  else
    match (check, regen) with
    | false, false | true, true ->
        prerr_endline "golden: pass exactly one of --check or --regen";
        2
    | false, true ->
        let files = Oracle.Golden.regen ~dir entries in
        List.iter (Printf.printf "regenerated %s\n") files;
        0
    | true, false -> (
        match Oracle.Golden.check ~dir entries with
        | Ok () ->
            Printf.printf "golden: %d entries match under rtol %g\n" (List.length entries)
              Oracle.Golden.float_rtol;
            0
        | Error msgs ->
            List.iter (Printf.eprintf "golden mismatch: %s\n") msgs;
            Printf.eprintf "golden: %d mismatches over %d entries\n" (List.length msgs)
              (List.length entries);
            1)

let check = Arg.(value & flag & info [ "check" ] ~doc:"Diff fresh runs against the goldens.")
let regen = Arg.(value & flag & info [ "regen" ] ~doc:"Rewrite the golden files.")

let dir =
  Arg.(value & opt string "goldens" & info [ "dir" ] ~docv:"DIR" ~doc:"Golden directory.")

let designs =
  Arg.(
    value & opt string ""
    & info [ "designs" ] ~docv:"NAMES" ~doc:"Comma-separated design filter (default: all).")

let scale =
  Arg.(
    value
    & opt (some float) None
    & info [ "scale" ] ~docv:"S" ~doc:"Override the suite scale of every entry.")

let cmd =
  let doc = "golden-regression gate for Tdp.Flow metrics" in
  Cmd.v (Cmd.info "golden" ~doc) Term.(const run $ check $ regen $ dir $ designs $ scale)

let () = exit (Cmd.eval' cmd)
