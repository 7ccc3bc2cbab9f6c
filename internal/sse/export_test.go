package sse

// Hooks for the external tests of this package, which drive internal/core:
// an import the package itself cannot have.

// ReferenceOrderPhase is referenceOrderPhase.
func (k *Kernel) ReferenceOrderPhase(in PhaseInput) PhaseOutput { return k.referenceOrderPhase(in) }

// RandomPhaseInput is randomPhaseInput.
var RandomPhaseInput = randomPhaseInput
