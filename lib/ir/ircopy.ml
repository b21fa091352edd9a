let copy_instr (i : Ir.instr) : Ir.instr =
  { Ir.iid = i.iid; iloc = i.iloc; idesc = i.idesc }

let copy_block (b : Ir.block) : Ir.block =
  {
    Ir.bid = b.bid;
    instrs = List.map copy_instr b.instrs;
    btermin = b.btermin;
    bloc = b.bloc;
  }

let copy_func (f : Ir.func) : Ir.func =
  {
    Ir.fname = f.fname;
    fret = f.fret;
    fparams = f.fparams;
    flocals = f.flocals;
    fblocks = List.map copy_block f.fblocks;
    floc = f.floc;
    next_reg = f.next_reg;
    regtys = Array.sub f.regtys 0 f.next_reg;
    next_block = f.next_block;
  }

let copy_program (p : Ir.program) : Ir.program =
  {
    Ir.structs = Structs.copy p.structs;
    globals = p.globals;
    funcs = List.map copy_func p.funcs;
    pexterns = p.pexterns;
    psizeof_uses = p.psizeof_uses;
    next_iid = p.next_iid;
  }
