package analysis

// Suite returns the project's analyzers in reporting order. cmd/vqelint
// runs all of them on every package go vet hands it.
func Suite() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc,
		WorkersSemantics,
		TimerPair,
		PanicDiscipline,
		FloatCompare,
		LockDiscipline,
		CtxFlow,
		GoroutineLife,
	}
}
