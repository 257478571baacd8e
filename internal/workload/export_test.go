package workload

// LiveSurges reports how many surges the generator still holds.
func (g *Generator) LiveSurges() int { return len(g.surges) }
