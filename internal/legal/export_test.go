package legal

// len reports the number of interned shapes.
func (t *shapeTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// ShapeCount exposes the engine's interned shape count to the external
// test package, whose tests drive the engine with the scenario tables.
func ShapeCount(e *Engine) int { return e.shapes.len() }
