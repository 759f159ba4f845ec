(** The benchmark suite: eight designs mirroring the relative sizes and
    constraint tightness of the ICCAD2015 superblue cases the paper uses
    (scaled to CPU-friendly sizes; substitution rationale in DESIGN.md). *)

type entry = { short : string; params : Genparams.t }

(** The eight designs; [scale] multiplies all cell counts. *)
val entries : ?scale:float -> unit -> entry list

val names : ?scale:float -> unit -> string list

(** Raises [Util.Errors.Error (Config_error _)] for unknown names. *)
val find : ?scale:float -> string -> entry

(** Generate a suite design; [calibrate] (default true) also sets its
    clock. Deterministic in (short, scale). *)
val load : ?scale:float -> ?calibrate:bool -> string -> Netlist.Design.t

(** Parameters for a scale-ladder design with roughly [cells] total cells
    (combinational + FF + boundary IO + macros) — the 100k-1M workloads
    of the SoA scale bench. Deterministic in [cells] and [seed]. *)
val sized_params : ?seed:int -> cells:int -> unit -> Genparams.t

(** Generate a scale-ladder design. [calibrate] defaults to [false]: clock
    calibration runs a full global placement, which is the expensive part
    at 500k+ cells and irrelevant to the memory/kernel measurements. *)
val load_sized : ?seed:int -> ?calibrate:bool -> cells:int -> unit -> Netlist.Design.t
