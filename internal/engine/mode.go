package engine

// ExecMode once selected the TAG execution core. The compiled core is now
// the only one, so the type has a single value.
//
// Deprecated: kept only so the benchmark module's calls to
// cli.BuildMineResult still compile; it is ignored and goes away with them.
type ExecMode int

// ExecCompiled is the compiled TAG core, the only one.
//
// Deprecated: see ExecMode.
const ExecCompiled ExecMode = 0
