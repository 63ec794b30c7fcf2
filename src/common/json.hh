/**
 * @file
 * Dependency-free JSON support for the observability subsystem
 * (src/obs): a streaming writer used by the JSONL result sink
 * and a small validating parser used by `dirsim_report` and the
 * manifest cross-checks.
 *
 * Writing is streaming (no DOM is built); numbers are emitted so they
 * round-trip exactly — unsigned integers verbatim and doubles via the
 * shortest representation that parses back to the same value. Parsing
 * builds a JsonValue tree; integer-looking numbers keep their full
 * 64-bit precision (doubles would silently truncate counters above
 * 2^53, e.g. FNV checksums).
 */

#ifndef DIRSIM_COMMON_JSON_HH
#define DIRSIM_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dirsim
{

/** Escape @p text for inclusion inside a JSON string literal. */
std::string jsonEscape(std::string_view text);

/**
 * A streaming JSON writer.
 *
 * Nesting and commas are tracked internally, so callers only state
 * structure:
 * @code
 *   JsonWriter w(os);
 *   w.beginObject().key("scheme").value("Dir0B")
 *    .key("refs").value(std::uint64_t{1500000}).endObject();
 * @endcode
 *
 * Misuse (a value where a key is required, unbalanced end calls) is
 * reported via panic() — it is always a dirsim bug, not bad input.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os_arg) : os(os_arg) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member key; must be directly inside an object. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text);
    JsonWriter &value(bool flag);
    JsonWriter &value(double number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(std::int64_t number);
    JsonWriter &value(unsigned number);
    JsonWriter &null();

    /** True when every container has been closed. */
    bool balanced() const { return stack.empty(); }

  private:
    enum class Frame : unsigned char
    {
        Object,
        Array,
    };

    /** Emit the comma/clear-pending bookkeeping before a value. */
    void preValue();
    void push(Frame frame, char open);
    void pop(Frame frame, char close);

    std::ostream &os;
    std::vector<Frame> stack;
    /** Values already emitted in the innermost container. */
    std::vector<bool> hasElements;
    /** A key was just written; exactly one value must follow. */
    bool pendingKey = false;
};

/**
 * A parsed JSON document.
 *
 * Object members preserve their input order (so re-serialization is
 * stable) and are looked up linearly — the documents we parse have a
 * few dozen keys at most. Numbers keep their source spelling;
 * asU64()/asDouble() convert on demand so 64-bit counters survive
 * untruncated.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, JsonValue>;

    /**
     * Parse a complete JSON document.
     *
     * @throws UsageError on malformed input (message includes the
     *         byte offset) or nesting deeper than 64 levels
     */
    static JsonValue parse(std::string_view text);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }

    /** @throws UsageError when the value is not a bool */
    bool asBool() const;

    /** @throws UsageError when not a number */
    double asDouble() const;

    /** @throws UsageError when not a non-negative integer number */
    std::uint64_t asU64() const;

    /** @throws UsageError when the value is not a string */
    const std::string &asString() const;

    /** Array elements / object size; 0 for scalars. */
    std::size_t size() const;

    /** @throws UsageError when not an array or out of range */
    const JsonValue &at(std::size_t index) const;

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view name) const;

    /** @throws UsageError when the member is absent */
    const JsonValue &at(std::string_view name) const;

    /** Object members in input order (empty for non-objects). */
    const std::vector<Member> &members() const { return object_; }

    /** Array elements (empty for non-arrays). */
    const std::vector<JsonValue> &elements() const { return array_; }

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; ///< number spelling or string payload
    std::vector<JsonValue> array_;
    std::vector<Member> object_;
};

} // namespace dirsim

#endif // DIRSIM_COMMON_JSON_HH
