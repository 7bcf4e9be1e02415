package router

// MemoLen returns the number of bodies the router's id memo holds.
func (rt *Router) MemoLen() int { return rt.ids.Len() }
