(** Session registry + warm cache (see the interface). *)

type entry = {
  design : Netlist.Design.t;
  mutable timer : Sta.Timer.t option;
  mutable placed : bool;
  mutable last_result : Tdp.Flow.result option;
  mutable generation : int;
}

type t = { tbl : (string, entry) Hashtbl.t; mutable order : string list (* load order, newest last *) }

let create () = { tbl = Hashtbl.create 8; order = [] }

let add t ~name design =
  let entry = { design; timer = None; placed = false; last_result = None; generation = 0 } in
  if not (Hashtbl.mem t.tbl name) then t.order <- t.order @ [ name ];
  Hashtbl.replace t.tbl name entry;
  entry

let names t = List.filter (Hashtbl.mem t.tbl) t.order

let find t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "no design %S loaded (loaded: %s)" name
           (match names t with [] -> "none" | ns -> String.concat ", " ns))

let unload t name =
  let existed = Hashtbl.mem t.tbl name in
  Hashtbl.remove t.tbl name;
  if existed then t.order <- List.filter (fun n -> n <> name) t.order;
  existed

let timer ?(obs = Obs.Ctx.null) ~par entry =
  match entry.timer with
  | Some tm -> tm
  | None ->
      let tm = Sta.Timer.create ~par ~obs entry.design in
      Sta.Timer.update tm;
      entry.timer <- Some tm;
      tm

let note_eco entry (a : Eco.applied) =
  entry.generation <- entry.generation + 1;
  match entry.timer with
  | None -> () (* cold: nothing to keep consistent *)
  | Some tm ->
      (* Order matters: constraint changes first (cheap in-place
         refreshes / invalidations), the incremental re-time last so it
         settles the final state once. *)
      (match a.Eco.clock with Some p -> Sta.Timer.set_clock tm p | None -> ());
      if a.Eco.rc_changed then Sta.Timer.invalidate tm;
      if a.Eco.moved <> [] then Sta.Timer.update_moved tm ~cells:a.Eco.moved
