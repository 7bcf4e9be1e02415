package router

// MemoLen returns the number of bodies the router's id memo holds.
func (rt *Router) MemoLen() int { return rt.ids.Len() }

// KeptLen returns the number of status and result bodies the router keeps.
func (rt *Router) KeptLen() (statuses, results int) {
	return rt.statuses.Stats().Entries, rt.results.Stats().Entries
}
